package core

import (
	"bytes"
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

// TestAnalysisCodecRejectsDamage truncates and corrupts an encoded
// analysis at many offsets: the decoder must error every time, never panic.
func TestAnalysisCodecRejectsDamage(t *testing.T) {
	a := &Analysis{
		Baseline: stacks.Latencies{1: 2, 2: 4},
		MicroOps: 100,
		Opts:     DefaultOptions(),
		Segments: []Segment{{Lo: 0, Hi: 100, Stacks: []stacks.Stack{
			{Counts: [stacks.NumEvents]float64{0: 50, 3: 2.5}},
			{Counts: [stacks.NumEvents]float64{1: 7}},
		}}},
	}
	var buf bytes.Buffer
	if err := WriteAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
