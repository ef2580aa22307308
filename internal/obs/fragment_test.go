package obs

import (
	"crypto/sha256"
	"testing"
	"time"
)

func testFingerprint(seed byte) []byte {
	fp := make([]byte, sha256.Size)
	for i := range fp {
		fp[i] = seed + byte(i)
	}
	return fp
}

func TestFragmentRoundTrip(t *testing.T) {
	fp := testFingerprint(7)
	frag := &Fragment{
		Process: "worker-a",
		Records: []Record{
			{ID: 1<<32 | 1, Parent: 99, Cat: "fleet", Name: "lease", Start: time.Millisecond, Dur: time.Millisecond},
			{ID: 1<<32 | 2, Parent: 99, Cat: "fleet", Name: "evaluate", Detail: "chunk 0",
				Start: 2 * time.Millisecond, Dur: 5 * time.Millisecond, ArgKey: "points", Arg: 3},
		},
		Sync:    ClockSync{T0: time.Millisecond, T1: 3 * time.Millisecond, Coord: 10 * time.Millisecond},
		HasSync: true,
	}
	raw, err := EncodeFragment(fp, frag)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeFragment(fp, raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Process != frag.Process || got.HasSync != frag.HasSync || got.Sync != frag.Sync {
		t.Errorf("decoded header %+v, want %+v", got, frag)
	}
	if len(got.Records) != len(frag.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(frag.Records))
	}
	for i := range frag.Records {
		if got.Records[i] != frag.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], frag.Records[i])
		}
	}
}

// Every way a fragment blob can be wrong in identity or shape must decode to
// an error — the coordinator's drop-with-counter path — never to silently
// wrong records. Bit rot is the store frame's to catch (FuzzFrame, and
// TestFleetCorruptFragmentCounted end to end).
func TestFragmentDecodeRejects(t *testing.T) {
	fp := testFingerprint(1)
	raw, err := EncodeFragment(fp, &Fragment{Process: "w", Records: []Record{{ID: 5, Name: "x"}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	if _, err := DecodeFragment(fp, raw[:fragHeader-1]); err == nil {
		t.Error("truncated blob decoded")
	}
	if _, err := DecodeFragment(fp, raw[:len(raw)-3]); err == nil {
		t.Error("blob truncated inside its payload decoded")
	}
	bad := append([]byte("XXXXXX"), raw[len(fragMagic):]...)
	if _, err := DecodeFragment(fp, bad); err == nil {
		t.Error("wrong magic decoded")
	}
	if _, err := DecodeFragment(testFingerprint(2), raw); err == nil {
		t.Error("foreign-sweep blob decoded")
	}
	if _, err := DecodeFragment(fp[:10], raw); err == nil {
		t.Error("short fingerprint accepted")
	}
	if _, err := EncodeFragment(fp[:10], &Fragment{}); err == nil {
		t.Error("encode accepted a short fingerprint")
	}
}

// The skew model: Offset maps worker clocks onto the coordinator's as the
// midpoint of the lease round-trip, in both skew directions.
func TestClockSyncOffset(t *testing.T) {
	behind := ClockSync{T0: 10 * time.Millisecond, T1: 14 * time.Millisecond, Coord: 50 * time.Millisecond}
	if got := behind.Offset(); got != 38*time.Millisecond {
		t.Errorf("behind offset = %v, want 38ms", got)
	}
	// Worker clock AHEAD of the coordinator: the offset must come out
	// negative, shifting worker spans earlier on the merged timebase.
	ahead := ClockSync{T0: 100 * time.Millisecond, T1: 104 * time.Millisecond, Coord: 2 * time.Millisecond}
	if got := ahead.Offset(); got != -100*time.Millisecond {
		t.Errorf("ahead offset = %v, want -100ms", got)
	}
}
