package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// shared.go — the fleet's cross-process blob root. Store (store.go) is
// documented single-process: its LRU order and byte accounting live in one
// process's memory, so two processes over one directory would evict and
// count past each other. The fleet needs the opposite shape — one directory
// written by a coordinator and any number of worker processes on the same
// host — so Shared keeps no cross-entry state at all: every object is one
// frame (frame.go: a 32-byte SHA-256 of the payload, then the payload)
// published atomically. Concurrent publishers of the same key with the same
// payload converge on identical bytes; readers verify every payload and
// drop what fails. Give Shared its own directory (conventionally a `fleet/`
// subdirectory next to a Store root): a Store opened over the same
// directory would index Shared's objects as its own and evict them under
// its byte bound.

// Shared is an index-free, cross-process content-verified blob root.
// Construct with OpenShared.
type Shared struct {
	dir string

	puts, dupes, corruptions atomic.Uint64
}

// OpenShared initializes (or reopens) the shared root at dir. Stale
// temporaries from crashed publications are swept; published objects are
// never touched, because another live process may own them.
func OpenShared(dir string) (*Shared, error) {
	for _, sub := range []string{objectsSub, tmpSub} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating shared %s: %w", sub, err)
		}
	}
	s := &Shared{dir: dir}
	// Unlike Store's startup, temporaries are only swept best-effort: a
	// concurrent publisher's in-flight temp file may vanish under it, which
	// its rename reports; callers retry. Single-host fleets restart their
	// coordinator far more often than they race it, so the trade is fine.
	if tmps, err := os.ReadDir(filepath.Join(dir, tmpSub)); err == nil {
		for _, de := range tmps {
			_ = os.Remove(filepath.Join(dir, tmpSub, de.Name()))
		}
	}
	return s, nil
}

// objectPath addresses one key's payload file: objects/<sha256(key)>, the
// same addressing discipline as Store.
func (s *Shared) objectPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, objectsSub, hex.EncodeToString(sum[:]))
}

// Put publishes payload under key, atomically and idempotently. When the key
// is already published with the same payload digest and size, Put is a cheap
// no-op that never rewrites the file — the work-stealing double-completion
// path, where two workers publish identical bytes — and reports dup=true.
// A different payload under the same key is replaced.
func (s *Shared) Put(key string, payload []byte) (dup bool, err error) {
	if key == "" {
		return false, fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen {
		return false, fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	sum := sha256.Sum256(payload)
	path := s.objectPath(key)
	if f, oerr := os.Open(path); oerr == nil {
		var have [sha256.Size]byte
		_, rerr := io.ReadFull(f, have[:])
		fi, serr := f.Stat()
		_ = f.Close()
		if rerr == nil && serr == nil && have == sum &&
			fi.Size() == int64(sha256.Size+len(payload)) {
			s.dupes.Add(1)
			return true, nil
		}
	}

	if err := writeAtomic(filepath.Join(s.dir, tmpSub), path, frame(sum, payload)); err != nil {
		return false, err
	}
	s.puts.Add(1)
	return false, nil
}

// Get returns the verified payload published under key, reporting a miss
// for a missing, unreadable or damaged object alike; Read tells them apart.
func (s *Shared) Get(key string) ([]byte, bool) {
	payload, err := s.Read(key)
	return payload, err == nil
}

// Read returns the verified payload published under key. A missing key
// returns an error matching fs.ErrNotExist; a damaged object is removed, so
// the next publisher rebuilds it, and returns ErrCorrupt.
func (s *Shared) Read(key string) ([]byte, error) {
	path := s.objectPath(key)
	payload, err := ReadFrame(path)
	if errors.Is(err, ErrCorrupt) {
		s.corruptions.Add(1)
		_ = os.Remove(path)
	}
	return payload, err
}

// Delete removes key if present. Used by the coordinator after a sweep's
// report is assembled: the chunk blobs were only ever its resume state.
func (s *Shared) Delete(key string) {
	_ = os.Remove(s.objectPath(key))
}

// SharedStats is a point-in-time snapshot of one process's counters; other
// processes over the same directory keep their own.
type SharedStats struct {
	Puts        uint64 // objects actually written
	Duplicates  uint64 // Put calls satisfied without a rewrite
	Corruptions uint64 // payloads dropped on verification failure
}

// Stats snapshots the counters.
func (s *Shared) Stats() SharedStats {
	return SharedStats{
		Puts:        s.puts.Load(),
		Duplicates:  s.dupes.Load(),
		Corruptions: s.corruptions.Load(),
	}
}
