// Package store provides the durable tier of the exploration service's
// artifact cache: an on-disk, content-addressed blob store that survives
// process restarts, so the expensive simulate/analyze setup the paper
// amortizes across design-point queries is also amortized across service
// lifetimes. A killed or restarted rpserved reopens its store directory and
// immediately serves cache hits for every trace it has ever analyzed.
//
// The store is its objects: each entry is one file, a frame (frame.go)
// whose payload is the entry's build cost followed by its bytes, and Open
// rebuilds the index from the files alone. Guarantees:
//   - publication is atomic: an object is written to a temporary file,
//     synced, and renamed into place — a crash at any instant leaves either
//     the old or the new object, never a torn entry;
//   - corruption is detected, never served: every object's checksum is
//     verified on read, and a mismatching or unreadable entry is dropped
//     and reported as a miss so the caller rebuilds it;
//   - capacity is bounded: beyond MaxBytes the least-recently-used entries
//     are evicted (files deleted);
//   - the store is safe for concurrent use by one process. Cross-process
//     sharing of one directory is not supported: the LRU order and the byte
//     accounting live in this process's memory.
//
// The store holds opaque bytes. Concurrency deduplication (single-flight)
// and typed encode/decode live one layer up, in serve/cache.Tiered.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options parameterizes Open.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; beyond it the
	// least-recently-used entries are evicted. Non-positive means unbounded.
	MaxBytes int64
	// Logger receives structured warnings for the events an operator should
	// see — corrupt entries dropped, evictions. Nil discards.
	Logger *slog.Logger
	// Tracer, when non-nil, records store activity as spans: read and
	// verify per Get, evict per garbage-collected entry. Nil records
	// nothing.
	Tracer *obs.Tracer
}

// maxKeyLen bounds one key; store keys are digest+fingerprint strings, far
// below this.
const maxKeyLen = 4096

// An object is the frame sha256(body) ‖ body, where body is the entry's
// build cost (costLen bytes, little-endian nanoseconds) ‖ payload. A file
// shorter than headerLen cannot be an object.
const (
	costLen   = 8
	headerLen = sha256.Size + costLen
)

// Store is an on-disk content-addressed blob store. Construct with Open.
type Store struct {
	dir      string
	maxBytes int64
	logger   *slog.Logger
	tracer   *obs.Tracer

	mu sync.Mutex
	// entries indexes the objects by file name (hex sha256(key)), so Open
	// can rebuild it from objects/ alone.
	entries map[string]*entry
	bytes   int64
	tick    uint64

	hits, misses, corruptions, evictions atomic.Uint64
	savedNS                              atomic.Int64
}

// entry is the in-memory record of one object. sum and cost are known
// (known == true) once this process published the object; an entry Open
// found learns them from its object on the first Put of its key.
type entry struct {
	name    string
	size    int64  // payload bytes: the file size minus headerLen
	lastUse uint64 // recency tick for LRU eviction
	known   bool
	sum     [sha256.Size]byte // sha256(payload), for the duplicate-Put check
	cost    time.Duration
}

// Open loads (or initializes) the store rooted at dir. Stale temporaries
// from a crashed publication are removed, and the index is rebuilt from
// objects/: one entry per file, least recently used first in
// modification-time order (ties by name). A file too short to be an object
// is removed and counted as a corruption; any other damage is caught by
// the first Get.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{objectsSub, tmpSub} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, logger: logger, tracer: opts.Tracer,
		entries: make(map[string]*entry)}

	if tmps, err := os.ReadDir(filepath.Join(dir, tmpSub)); err == nil {
		for _, de := range tmps {
			_ = os.Remove(filepath.Join(dir, tmpSub, de.Name()))
		}
	}
	des, err := os.ReadDir(filepath.Join(dir, objectsSub))
	if err != nil {
		return nil, fmt.Errorf("store: listing objects: %w", err)
	}
	type dated struct {
		e   *entry
		mod time.Time
	}
	found := make([]dated, 0, len(des))
	for _, de := range des {
		path := filepath.Join(dir, objectsSub, de.Name())
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		if fi.Size() < headerLen {
			_ = os.Remove(path)
			s.corruptions.Add(1)
			s.logger.Warn("store: removing object shorter than its header",
				slog.String("object", de.Name()), slog.Int64("bytes", fi.Size()))
			continue
		}
		found = append(found, dated{&entry{name: de.Name(), size: fi.Size() - headerLen}, fi.ModTime()})
	}
	// ReadDir lists by name, so a stable sort breaks mtime ties by name.
	sort.SliceStable(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	for _, f := range found {
		s.tick++
		f.e.lastUse = s.tick
		s.entries[f.e.name] = f.e
		s.bytes += f.e.size
	}
	s.mu.Lock()
	s.gcLocked()
	s.mu.Unlock()
	return s, nil
}

const (
	objectsSub = "objects"
	tmpSub     = "tmp"
)

// objectName is the file name of key's object: hex sha256(key). Hashing the
// key keeps arbitrary key strings out of the filesystem namespace. Index
// lookups convert it in place (entries[string(name[:])]), which does not
// allocate.
func objectName(key string) (name [2 * sha256.Size]byte) {
	// Copying the key into a stack buffer keeps the hash allocation-free
	// for keys up to its size; a []byte(key) conversion would allocate
	// for any key over 32 bytes.
	var buf [256]byte
	sum := sha256.Sum256(append(buf[:0], key...))
	hex.Encode(name[:], sum[:])
	return name
}

// objectPath addresses the object file of one key: objects/<sha256(key)>.
func (s *Store) objectPath(key string) string {
	name := objectName(key)
	return s.path(string(name[:]))
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, objectsSub, name) }

// Get returns the payload published under key, its recorded build cost and
// true on a hit. A missing key is a miss; an unreadable object, or one that
// fails its frame check or is too short to hold a cost, is corruption — the
// entry is dropped, the corruption counter bumped, and the call reports a
// miss so the caller rebuilds and republishes. Every hit adds the entry's
// recorded build cost to the saved-setup counter: that cost is exactly what
// the caller did not re-pay.
func (s *Store) Get(key string) ([]byte, time.Duration, bool) {
	name := objectName(key)
	s.mu.Lock()
	e, ok := s.entries[string(name[:])]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, 0, false
	}
	s.tick++
	e.lastUse = s.tick
	s.mu.Unlock()

	rd := s.tracer.Start(obs.CatStore, "read")
	rd.SetDetail(key)
	raw, err := os.ReadFile(s.path(e.name))
	unreadable := err != nil
	rd.SetArg("bytes", int64(len(raw)))
	rd.End()
	if err == nil {
		vf := s.tracer.Start(obs.CatStore, "verify")
		vf.SetDetail(key)
		var body []byte
		body, err = unframe(raw)
		vf.End()
		if err == nil && len(body) >= costLen {
			cost := time.Duration(binary.LittleEndian.Uint64(body))
			s.hits.Add(1)
			s.savedNS.Add(int64(cost))
			return body[costLen:], cost, true
		}
	}
	// Unreadable or rotted: drop the entry so the next Put can rebuild it.
	// The caller only sees a miss, so the warning is the one place the
	// damage is visible.
	s.corruptions.Add(1)
	s.logger.Warn("store: dropping corrupt entry, reporting miss",
		slog.String("key", key), slog.Bool("unreadable", unreadable))
	s.mu.Lock()
	if s.entries[e.name] == e {
		s.dropLocked(e)
	}
	s.mu.Unlock()
	return nil, 0, false
}

// Put publishes payload under key with its build cost as one frame,
// sha256(cost ‖ payload) ‖ cost ‖ payload, written atomically (temp file,
// sync, rename). Re-publishing an existing key replaces it — unless the
// payload and cost are what the entry already holds (same payload digest,
// size and cost), in which case Put is a cheap idempotent no-op: the
// entry's recency is bumped in memory and nothing is written. That is the
// duplicate-publication path a fleet's work-stealing double completion
// takes. Put never leaves a partially visible entry; on error the store's
// prior state is intact.
func (s *Store) Put(key string, payload []byte, cost time.Duration) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d exceeds %d", len(key), maxKeyLen)
	}
	name := objectName(key)
	sum := sha256.Sum256(payload)
	s.mu.Lock()
	e, ok := s.entries[string(name[:])]
	if ok && !e.known {
		s.mu.Unlock()
		s.learn(e)
		s.mu.Lock()
		e, ok = s.entries[string(name[:])]
	}
	if ok && e.known && e.sum == sum && e.size == int64(len(payload)) && e.cost == cost {
		s.tick++
		e.lastUse = s.tick
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	obj := make([]byte, headerLen+len(payload))
	binary.LittleEndian.PutUint64(obj[sha256.Size:], uint64(cost))
	copy(obj[headerLen:], payload)
	frameSum := sha256.Sum256(obj[sha256.Size:])
	copy(obj, frameSum[:])
	nm := string(name[:])
	if err := writeAtomic(filepath.Join(s.dir, tmpSub), s.path(nm), obj); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[nm]; ok {
		s.bytes -= old.size
	}
	s.tick++
	s.entries[nm] = &entry{name: nm, size: int64(len(payload)), lastUse: s.tick,
		known: true, sum: sum, cost: cost}
	s.bytes += int64(len(payload))
	s.gcLocked()
	return nil
}

// learn reads the object of an entry Open found and records its payload
// digest and cost, so a duplicate Put of it can skip the write. A damaged
// object stays unknown: the Put replaces it.
func (s *Store) learn(e *entry) {
	body, err := ReadFrame(s.path(e.name))
	if err != nil || len(body) < costLen {
		return
	}
	cost := time.Duration(binary.LittleEndian.Uint64(body))
	sum := sha256.Sum256(body[costLen:])
	s.mu.Lock()
	e.known, e.sum, e.cost = true, sum, cost
	s.mu.Unlock()
}

// Delete removes key if present. Used by the tier above when a payload
// decodes to garbage despite a clean checksum (a codec version change):
// the entry is treated as corrupt and rebuilt.
func (s *Store) Delete(key string) {
	name := objectName(key)
	s.mu.Lock()
	if e, ok := s.entries[string(name[:])]; ok {
		s.corruptions.Add(1)
		s.dropLocked(e)
	}
	s.mu.Unlock()
}

// dropLocked removes an entry and its object file. Called with mu held.
func (s *Store) dropLocked(e *entry) {
	s.bytes -= e.size
	delete(s.entries, e.name)
	_ = os.Remove(s.path(e.name))
}

// gcLocked evicts least-recently-used entries until the store fits
// MaxBytes. The newest entry is never evicted: one oversized artifact may
// transiently overshoot the bound rather than thrash (publish, evict,
// rebuild, publish...). Called with mu held.
func (s *Store) gcLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		var victim *entry
		for _, e := range s.entries {
			if e.lastUse == s.tick {
				continue // the entry just published or touched
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		ev := s.tracer.Start(obs.CatStore, "evict")
		ev.SetDetail(victim.name)
		ev.SetArg("bytes", victim.size)
		s.dropLocked(victim)
		ev.End()
		s.evictions.Add(1)
		s.logger.Warn("store: evicted least-recently-used entry",
			slog.String("object", victim.name),
			slog.Int64("bytes", victim.size),
			slog.Int64("store_bytes", s.bytes),
			slog.Int64("max_bytes", s.maxBytes))
	}
}

// Len returns the number of published entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats is a point-in-time snapshot of the store's state and counters.
type Stats struct {
	Entries     int
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Corruptions uint64
	Evictions   uint64
	// SavedSetup accumulates the recorded build cost of every hit: the
	// setup time this process avoided re-paying thanks to the durable tier
	// (including work done by previous processes over the same directory).
	SavedSetup time.Duration
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:     entries,
		Bytes:       bytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corruptions: s.corruptions.Load(),
		Evictions:   s.evictions.Load(),
		SavedSetup:  time.Duration(s.savedNS.Load()),
	}
}
