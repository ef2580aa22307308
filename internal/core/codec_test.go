package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// TestAnalysisCodecRoundTrip builds a real analysis over a simulated
// workload, writes it, reads it back, and checks the decoded analysis is
// structurally identical and — the property the durable tier depends on —
// predicts bit-identical cycle counts for arbitrary latency assignments.
func TestAnalysisCodecRoundTrip(t *testing.T) {
	cfg := config.Baseline()
	prof, ok := workload.ByName("416.gamess")
	if !ok {
		t.Fatal("unknown workload")
	}
	uops := workload.Stream(prof, 11, 12000)
	sim, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAnalysis(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.MicroOps != a.MicroOps || got.Baseline != a.Baseline {
		t.Fatalf("scalars differ: %d/%v vs %d/%v", got.MicroOps, got.Baseline, a.MicroOps, a.Baseline)
	}
	if len(got.Segments) != len(a.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(got.Segments), len(a.Segments))
	}
	for i := range a.Segments {
		w, g := &a.Segments[i], &got.Segments[i]
		if w.Lo != g.Lo || w.Hi != g.Hi || len(w.Stacks) != len(g.Stacks) {
			t.Fatalf("segment %d shape differs", i)
		}
		for j := range w.Stacks {
			if w.Stacks[j] != g.Stacks[j] {
				t.Fatalf("segment %d stack %d differs", i, j)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 50; k++ {
		l := cfg.Lat
		for e := stacks.Event(1); e < stacks.NumEvents; e++ {
			l = l.Scale(e, 0.25+rng.Float64()*1.5)
		}
		if w, g := a.Predict(&l), got.Predict(&l); w != g {
			t.Fatalf("assignment %d: predictions diverge after round trip: %g vs %g", k, w, g)
		}
	}

	// The encoding itself is canonical: re-encoding the decoded analysis
	// reproduces the bytes (content-addressing and checkpoint fingerprints
	// rely on this).
	var buf2 bytes.Buffer
	if err := WriteAnalysis(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("analysis encoding is not canonical")
	}
}

// damageAnalysis is a small hand-made analysis whose encoding the damage
// tests and the fuzzer start from.
func damageAnalysis() *Analysis {
	return &Analysis{
		Baseline: stacks.Latencies{1: 2, 2: 4},
		MicroOps: 100,
		Opts:     DefaultOptions(),
		Segments: []Segment{{Lo: 0, Hi: 100, Stacks: []stacks.Stack{
			{Counts: [stacks.NumEvents]float64{0: 50, 3: 2.5}},
			{Counts: [stacks.NumEvents]float64{1: 7}},
		}}},
	}
}

func encodeAnalysis(tb testing.TB, a *Analysis) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteAnalysis(&buf, a); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// analysisHead is the encoding of an analysis of mo µops with default
// options, up to but not including its segment count.
func analysisHead(tb testing.TB, mo int) []byte {
	raw := encodeAnalysis(tb, &Analysis{MicroOps: mo, Opts: DefaultOptions()})
	return raw[:len(raw)-1] // the count 0 of no segments
}

// sparseEntry is one (event, count) entry of an encoded stack.
type sparseEntry struct {
	ev    int
	count float64
}

// rawSegment hand-encodes the window [lo, hi) holding one stack whose
// entries are written as given, so a test can write entries WriteAnalysis
// never does.
func rawSegment(lo, hi int, entries ...sparseEntry) []byte {
	buf := binary.AppendUvarint(nil, uint64(lo))
	buf = binary.AppendUvarint(buf, uint64(hi))
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(e.ev))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.count))
	}
	return buf
}

// canonicalAnalysis is the hand encoding of a one-window analysis that
// WriteAnalysis writes too; each of nonCanonicalAnalyses differs from it
// in one respect.
func canonicalAnalysis(tb testing.TB) []byte {
	return append(append(analysisHead(tb, 10), 1), rawSegment(0, 10, sparseEntry{0, 5})...)
}

// nonCanonicalAnalyses are encodings WriteAnalysis never produces: each
// either re-encodes to other bytes or claims µops its windows do not hold.
func nonCanonicalAnalyses(tb testing.TB) map[string][]byte {
	seg := rawSegment(0, 10, sparseEntry{0, 5})
	return map[string][]byte{
		"overlong segment count": append(append(analysisHead(tb, 10), 0x81, 0x00), seg...),
		"zero count": append(append(analysisHead(tb, 10), 1),
			rawSegment(0, 10, sparseEntry{0, 5}, sparseEntry{1, 0})...),
		"negative zero count": append(append(analysisHead(tb, 10), 1),
			rawSegment(0, 10, sparseEntry{0, 5}, sparseEntry{1, math.Copysign(0, -1)})...),
		"duplicate event": append(append(analysisHead(tb, 10), 1),
			rawSegment(0, 10, sparseEntry{1, 2}, sparseEntry{1, 3})...),
		"descending events": append(append(analysisHead(tb, 10), 1),
			rawSegment(0, 10, sparseEntry{2, 2}, sparseEntry{1, 3})...),
		"µop count off its window": append(append(analysisHead(tb, 99), 1), seg...),
		"gap between windows": append(append(append(analysisHead(tb, 20), 2),
			rawSegment(0, 5, sparseEntry{0, 5})...), rawSegment(6, 20, sparseEntry{0, 5})...),
	}
}

// TestAnalysisCodecRejectsDamage truncates and corrupts an encoded
// analysis at many offsets, and feeds every non-canonical encoding: the
// decoder must error every time, never panic.
func TestAnalysisCodecRejectsDamage(t *testing.T) {
	raw := encodeAnalysis(t, damageAnalysis())
	for cut := 0; cut < len(raw); cut += 3 {
		if _, err := ReadAnalysis(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := ReadAnalysis(bytes.NewReader(append(bytes.Clone(raw), 0x7))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := bytes.Clone(raw)
	bad[0] = 'X'
	if _, err := ReadAnalysis(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeAnalysis(canonicalAnalysis(t)); err != nil {
		t.Fatalf("hand-encoded canonical analysis rejected: %v", err)
	}
	for name, raw := range nonCanonicalAnalyses(t) {
		if _, err := DecodeAnalysis(raw); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzAnalysisRoundTrip feeds arbitrary bytes to DecodeAnalysis. Malformed
// input may only produce an error — never a panic or an oversized
// allocation — and any input that decodes must be one an analysis writes:
// WriteAnalysis reproduces its bytes, and its windows tile exactly its µop
// count, as Analyze's do.
func FuzzAnalysisRoundTrip(f *testing.F) {
	f.Add(encodeAnalysis(f, damageAnalysis()))
	f.Add(encodeAnalysis(f, &Analysis{Opts: DefaultOptions()}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := DecodeAnalysis(raw)
		if err != nil {
			return
		}
		if again := encodeAnalysis(t, a); !bytes.Equal(again, raw) {
			t.Fatalf("decoded %d bytes that re-encode to %d different bytes", len(raw), len(again))
		}
		covered := 0
		for i, seg := range a.Segments {
			if i > 0 && seg.Lo != a.Segments[i-1].Hi {
				t.Fatalf("segment %d starts at %d, after a window ending at %d", i, seg.Lo, a.Segments[i-1].Hi)
			}
			covered += seg.Hi - seg.Lo
		}
		if covered != a.MicroOps {
			t.Fatalf("windows hold %d µops, the analysis claims %d", covered, a.MicroOps)
		}
	})
}

// TestAnalysisCodecRejectsBadValues encodes analyses holding values no
// analysis can produce — a negative or non-finite stack count, a non-finite
// baseline latency — and requires the decoder to reject each, while the
// same analysis with valid values decodes.
func TestAnalysisCodecRejectsBadValues(t *testing.T) {
	build := func(count, baseline float64) *Analysis {
		return &Analysis{
			Baseline: stacks.Latencies{stacks.Base: 1, stacks.L1D: baseline},
			MicroOps: 100,
			Opts:     DefaultOptions(),
			Segments: []Segment{{Lo: 0, Hi: 100, Stacks: []stacks.Stack{
				{Counts: [stacks.NumEvents]float64{stacks.Base: 50, stacks.L1D: count}},
			}}},
		}
	}
	decode := func(a *Analysis) error {
		var buf bytes.Buffer
		if err := WriteAnalysis(&buf, a); err != nil {
			t.Fatal(err)
		}
		_, err := ReadAnalysis(&buf)
		return err
	}
	if err := decode(build(2.5, 4)); err != nil {
		t.Fatalf("valid analysis rejected: %v", err)
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if decode(build(c, 4)) == nil {
			t.Errorf("stack count %g decoded", c)
		}
	}
	for _, l := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if decode(build(2.5, l)) == nil {
			t.Errorf("baseline latency %g decoded", l)
		}
	}
}
