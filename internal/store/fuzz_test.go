package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
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
	f.Add(storeObject(time.Second, []byte("payload")))

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

// FuzzStoreObject places arbitrary bytes as a store object and reopens the
// store over it. Open and Get must never panic, and the outcome is one of
// two: a miss counted as one corruption, with the file gone, or a payload
// and cost whose re-Put into a fresh store writes the input byte for byte.
func FuzzStoreObject(f *testing.F) {
	f.Add(storeObject(3*time.Second, []byte("sha256digest|fp payload")))
	f.Add(storeObject(0, nil))
	f.Add(storeObject(-1, []byte{0}))
	f.Add([]byte{})                                           // empty file
	f.Add(make([]byte, headerLen-1))                          // runt
	f.Add(frame(sha256.Sum256([]byte("abc")), []byte("abc"))) // body shorter than a cost
	f.Add([]byte("a raw payload from before objects were framed"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := reopen(t, dir, Options{}).objectPath("k")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s := reopen(t, dir, Options{})
		payload, cost, ok := s.Get("k")
		if !ok {
			if st := s.Stats(); st.Corruptions != 1 || st.Entries != 0 {
				t.Fatalf("miss with stats %+v; want one corruption and no entries", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected object still on disk: %v", err)
			}
			return
		}
		fresh := reopen(t, t.TempDir(), Options{})
		if err := fresh.Put("k", payload, cost); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(fresh.objectPath("k"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("re-Put wrote %x, want the accepted object %x", got, raw)
		}
	})
}

// storeObject lays out a Store object by hand: the frame of cost ‖ payload.
func storeObject(cost time.Duration, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, uint64(cost))
	body = append(body, payload...)
	return frame(sha256.Sum256(body), body)
}
