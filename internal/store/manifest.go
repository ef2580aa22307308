package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// manifest.go — the store's index codec. The manifest is the single source
// of truth for what the store believes it holds: one record per published
// object (key, payload checksum, size, recorded build cost, recency tick).
// It is versioned and length-prefixed, and published as a frame (frame.go),
// so a torn write or bit rot is detected on open and degrades to an empty
// (rebuildable) index instead of serving wrong artifacts. The decoder must
// survive arbitrary bytes: it returns errors, never panics, and never
// allocates proportionally to untrusted length fields (FuzzStoreManifest
// enforces this).

const (
	manifestMagic   = "RPSTOR"
	manifestVersion = 1

	// maxKeyLen bounds one entry's key; store keys are digest+fingerprint
	// strings, far below this.
	maxKeyLen = 4096
	// maxManifestEntries bounds the entry count a decoder will accept.
	maxManifestEntries = 1 << 22
)

// entryMeta is one manifest record: the durable metadata of one published
// object. Payload bytes live in the object file named by the entry key's
// address; Sum is the SHA-256 of those bytes and is re-verified on every
// read.
type entryMeta struct {
	Key     string
	Sum     [sha256.Size]byte
	Size    int64
	Cost    time.Duration // build cost a future hit avoids re-paying
	LastUse uint64        // recency tick for LRU eviction, as of the last flush
}

// encodeManifest renders the entries in the canonical binary form: header,
// count, records.
func encodeManifest(entries []entryMeta) []byte {
	var body bytes.Buffer
	body.WriteString(manifestMagic)
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		body.Write(scratch[:n])
	}
	putU(manifestVersion)
	putU(uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		putU(uint64(len(e.Key)))
		body.WriteString(e.Key)
		body.Write(e.Sum[:])
		putU(uint64(e.Size))
		putU(uint64(e.Cost))
		putU(e.LastUse)
	}
	return body.Bytes()
}

// decodeManifest parses a manifest produced by encodeManifest. Any
// truncation, bad magic, unsupported version or oversized field is an error;
// the caller treats an undecodable manifest as an empty store, not as data.
func decodeManifest(raw []byte) ([]entryMeta, error) {
	br := bufio.NewReader(bytes.NewReader(raw))
	head := make([]byte, len(manifestMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: reading manifest header: %w", err)
	}
	if string(head) != manifestMagic {
		return nil, fmt.Errorf("store: bad manifest magic %q", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest version: %w", err)
	}
	if ver != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", ver)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading entry count: %w", err)
	}
	if count > maxManifestEntries {
		return nil, fmt.Errorf("store: entry count %d exceeds limit", count)
	}
	// The count is untrusted: clamp the capacity hint so a forged count
	// cannot make the decoder over-allocate. Each entry then costs input
	// bytes, so growth stays proportional to the input.
	capHint := count
	if capHint > 1<<12 {
		capHint = 1 << 12
	}
	entries := make([]entryMeta, 0, capHint)
	for i := uint64(0); i < count; i++ {
		var e entryMeta
		klen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: entry %d: reading key length: %w", i, err)
		}
		if klen > maxKeyLen {
			return nil, fmt.Errorf("store: entry %d: key length %d exceeds limit", i, klen)
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(br, key); err != nil {
			return nil, fmt.Errorf("store: entry %d: reading key: %w", i, err)
		}
		e.Key = string(key)
		if _, err := io.ReadFull(br, e.Sum[:]); err != nil {
			return nil, fmt.Errorf("store: entry %d: reading checksum: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: entry %d: reading size: %w", i, err)
		}
		if size > 1<<62 {
			return nil, fmt.Errorf("store: entry %d: size %d exceeds limit", i, size)
		}
		e.Size = int64(size)
		cost, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: entry %d: reading cost: %w", i, err)
		}
		if cost > 1<<62 {
			return nil, fmt.Errorf("store: entry %d: cost %d exceeds limit", i, cost)
		}
		e.Cost = time.Duration(cost)
		if e.LastUse, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("store: entry %d: reading recency: %w", i, err)
		}
		entries = append(entries, e)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: trailing bytes after %d entries", count)
	}
	return entries, nil
}
