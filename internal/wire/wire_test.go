package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestUvarintAcceptsOnlyMinimal: every value AppendUvarint writes decodes
// back, and a longer spelling of any value — a multi-byte varint ending in
// a zero byte — is an error, as are truncation and overflow.
func TestUvarintAcceptsOnlyMinimal(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64} {
		raw := binary.AppendUvarint(nil, v)
		d := NewDecoder(raw)
		if got := d.Uvarint(); d.Finish() != nil || got != v {
			t.Errorf("%d: decoded %d, err %v", v, got, d.Err())
		}
	}
	for name, raw := range map[string][]byte{
		"0 in two bytes":   {0x80, 0x00},
		"1 in three bytes": {0x81, 0x80, 0x00},
		"0 in ten bytes":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		"truncated":        {0x80},
		"empty":            {},
		"overflow":         {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		d := NewDecoder(raw)
		if v := d.Uvarint(); d.Err() == nil {
			t.Errorf("%s: decoded %d", name, v)
		}
	}
}

// TestUvarintMatchesStdlib: on random bytes, biased towards the varint
// boundaries, Uvarint agrees with binary.Uvarint wherever the varint is
// minimal, and rejects it otherwise.
func TestUvarintMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100000; k++ {
		raw := make([]byte, rng.Intn(12))
		for i := range raw {
			switch rng.Intn(4) {
			case 0:
				raw[i] = 0x80
			case 1:
				raw[i] = 0
			default:
				raw[i] = byte(rng.Intn(256))
			}
		}
		want, n := binary.Uvarint(raw)
		minimal := n == 1 || n > 1 && raw[n-1] != 0
		d := NewDecoder(raw)
		got := d.Uvarint()
		if ok := d.Err() == nil; ok != (n > 0 && minimal) || ok && (got != want || len(raw)-len(d.buf) != n) {
			t.Fatalf("% x: got %d (err %v), binary.Uvarint %d in %d bytes", raw, got, d.Err(), want, n)
		}
	}
}

// TestDecoderFailureSticks: after the first failure every read returns a
// zero value, and Finish reports that failure rather than trailing bytes.
func TestDecoderFailureSticks(t *testing.T) {
	d := NewDecoder([]byte{2, 1, 2, 3})
	if d.Bool() || d.Err() == nil {
		t.Fatal("boolean byte 2 accepted")
	}
	first := d.Err()
	if d.Uvarint() != 0 || d.Float64() != 0 || d.Bytes(1) != nil || d.Finish() != first {
		t.Fatal("reads after a failure were not inert")
	}
}

// TestCountBoundedByPayload: a count must fit its cap and the bytes left.
func TestCountBoundedByPayload(t *testing.T) {
	for _, tc := range []struct {
		raw      []byte
		max      uint64
		min      int
		want     int
		accepted bool
	}{
		{[]byte{3, 0, 0, 0}, 10, 1, 3, true},
		{[]byte{3, 0, 0}, 10, 1, 0, false}, // two bytes for three elements
		{[]byte{3, 0, 0, 0, 0, 0, 0}, 10, 2, 3, true},
		{[]byte{3, 0, 0, 0}, 2, 1, 0, false}, // over the cap
	} {
		d := NewDecoder(tc.raw)
		if got := d.Count(tc.max, tc.min); got != tc.want || (d.Err() == nil) != tc.accepted {
			t.Errorf("%v, max %d, min %d: count %d, err %v", tc.raw, tc.max, tc.min, got, d.Err())
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	d := NewDecoder([]byte("RPX\x01\x00"))
	d.Magic("RPX")
	if !d.Bool() || d.Finish() == nil {
		t.Fatal("trailing byte accepted")
	}
	d = NewDecoder([]byte("RPY"))
	if d.Magic("RPX"); d.Finish() == nil {
		t.Fatal("bad magic accepted")
	}
}
