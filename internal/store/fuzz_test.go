package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
	"time"
)

// FuzzFrame drives the frame reader with arbitrary bytes. Every input is
// either rejected as ErrCorrupt or verified into a payload whose re-frame
// is the input byte for byte; and every input, taken as a payload, survives
// a frame round trip.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("short"))
	f.Add(frame(sha256.Sum256(nil), nil))
	f.Add(frame(sha256.Sum256([]byte("payload")), []byte("payload")))
	f.Add(encodeManifest(nil))

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := unframe(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unframe returned %v, want ErrCorrupt", err)
			}
		} else if !bytes.Equal(frame(sha256.Sum256(payload), payload), raw) {
			t.Fatal("verified payload does not re-frame to the input")
		}
		framed := frame(sha256.Sum256(raw), raw)
		back, err := unframe(framed)
		if err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("payload did not round-trip: %v", err)
		}
		for _, i := range []int{0, len(framed) - 1} {
			bad := bytes.Clone(framed)
			bad[i] ^= 0x01
			if _, err := unframe(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flipped byte %d of a frame verified", i)
			}
		}
	})
}

// FuzzStoreManifest drives the manifest decoder with arbitrary bytes. The
// frame check (FuzzFrame) catches torn writes and bit rot first, so what
// reaches the decoder is a well-formed frame around arbitrary bytes — a
// hostile edit or a codec change. It must come back as an error: never a
// panic, never an entry set that does not round-trip, and never an
// allocation proportional to an untrusted length field.
func FuzzStoreManifest(f *testing.F) {
	// A healthy two-entry manifest.
	var sum [32]byte
	for i := range sum {
		sum[i] = byte(i)
	}
	f.Add(encodeManifest([]entryMeta{
		{Key: "sha256digest|fp", Sum: sum, Size: 4096, Cost: 3 * time.Second, LastUse: 9},
		{Key: "w/416.gamess|seed=42", Sum: sum, Size: 1, Cost: time.Millisecond, LastUse: 2},
	}))
	f.Add(encodeManifest(nil)) // empty store
	f.Add([]byte("RPSTOR"))    // header only
	f.Add([]byte("XXSTOR\x01\x00"))
	// Huge declared entry count with no data behind it.
	f.Add(append([]byte("RPSTOR\x01"), 0xff, 0xff, 0xff, 0xff, 0x7f))
	// Valid magic+version, one entry with an oversized key length.
	f.Add(append([]byte("RPSTOR\x01\x01"), 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, err := decodeManifest(raw)
		if err != nil {
			return // rejected input: the only other acceptable outcome
		}
		// Accepted input must round-trip through the canonical encoding.
		re := encodeManifest(entries)
		back, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		if len(back) != len(entries) {
			t.Fatalf("round trip changed entry count: %d != %d", len(back), len(entries))
		}
		for i := range entries {
			if back[i] != entries[i] {
				t.Fatalf("entry %d changed across round trip", i)
			}
		}
		if !bytes.Equal(encodeManifest(back), re) {
			t.Fatal("encoding is not canonical")
		}
	})
}
