package core

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func simTrace(t *testing.T, cfg *config.Config, uops []isa.MicroOp) *trace.Trace {
	t.Helper()
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{SegmentLength: 0, CosineThreshold: 0.7},
		{SegmentLength: 100, CosineThreshold: -0.1},
		{SegmentLength: 100, CosineThreshold: 1.5},
		{SegmentLength: 100, CosineThreshold: math.NaN()},
		{SegmentLength: 100, CosineThreshold: 0.7, MaxStacks: -1},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	def := DefaultOptions()
	if err := def.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if def.SegmentLength != 5000 || def.CosineThreshold != 0.7 || !def.PreserveUnique {
		t.Fatal("defaults differ from the paper's chosen parameters")
	}
}

// TestSegmentationStructure checks segment boundaries: contiguous, SoM-
// aligned, covering the whole trace.
func TestSegmentationStructure(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("453.povray")
	tr := simTrace(t, cfg, workload.Stream(prof, 3, 12000))
	opts := DefaultOptions()
	opts.SegmentLength = 2500
	a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Segments) < 4 {
		t.Fatalf("expected several segments, got %d", len(a.Segments))
	}
	prev := 0
	for i, s := range a.Segments {
		if s.Lo != prev {
			t.Fatalf("segment %d starts at %d, want %d", i, s.Lo, prev)
		}
		if !tr.Records[s.Lo].SoM {
			t.Fatalf("segment %d not SoM-aligned", i)
		}
		if len(s.Stacks) == 0 {
			t.Fatalf("segment %d has no stacks", i)
		}
		prev = s.Hi
	}
	if prev != len(tr.Records) {
		t.Fatalf("segments cover %d of %d records", prev, len(tr.Records))
	}
}

// TestSegmentationCloseToFullGraph: summed segment predictions track the
// unsegmented longest path within a few percent (segmentation cuts paths
// and adds boundary traversals — Section III-C).
func TestSegmentationCloseToFullGraph(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("416.gamess")
	tr := simTrace(t, cfg, workload.Stream(prof, 3, 10000))
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	for _, segLen := range []int{1000, 5000} {
		opts := DefaultOptions()
		opts.SegmentLength = segLen
		a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
		if err != nil {
			t.Fatal(err)
		}
		full := float64(g.LongestPath(&cfg.Lat))
		seg := a.Predict(&cfg.Lat)
		if e := stats.AbsPctErr(seg, full); e > 8 {
			t.Errorf("segLen %d: segmented prediction off by %.2f%%", segLen, e)
		}
	}
}

// TestReduceSetUniquenessMechanism tests the reduction rule directly: a
// small similar-looking path carrying an event kind no other path holds is
// exempt from merging when preservation is on, and merged away when off.
func TestReduceSetUniquenessMechanism(t *testing.T) {
	// One block per stack: the kernel then compares every pair.
	reduceSingletons := func(set []stacks.Stack, base *stacks.Latencies, opts *Options) []stacks.Stack {
		c := reduceCase{base: *base, opts: *opts}
		for _, s := range set {
			c.blocks = append(c.blocks, []stacks.Stack{s})
		}
		var r reducer
		return reduceWith(&r, &c)
	}
	base := config.Baseline().Lat
	mk := func(alu, l1d, div float64) stacks.Stack {
		var s stacks.Stack
		s.Counts[stacks.IntAlu] = alu
		s.Counts[stacks.L1D] = l1d
		s.Counts[stacks.FpDiv] = div
		return s
	}
	// Three paths: a big winner, a similar smaller one (mergeable), and a
	// similar small one that uniquely carries FpDiv.
	set := func() []stacks.Stack {
		return []stacks.Stack{mk(1000, 100, 0), mk(900, 95, 0), mk(850, 90, 3)}
	}

	on := DefaultOptions()
	out := reduceSingletons(set(), &base, &on)
	foundDiv := false
	for i := range out {
		if out[i].Counts[stacks.FpDiv] > 0 {
			foundDiv = true
		}
	}
	if !foundDiv {
		t.Fatal("uniqueness preservation lost the only FpDiv-bearing path")
	}
	if len(out) != 2 {
		t.Fatalf("expected the similar non-unique path to merge: kept %d", len(out))
	}

	off := on
	off.PreserveUnique = false
	out = reduceSingletons(set(), &base, &off)
	for i := range out {
		if out[i].Counts[stacks.FpDiv] > 0 {
			t.Fatal("without preservation the similar FpDiv path must merge away")
		}
	}
}

// TestUniquenessKeepsEventVisible checks end to end that with preservation
// on, a rare long-latency event class stays visible in the sink stacks,
// while aggressive merging without preservation erases it.
func TestUniquenessKeepsEventVisible(t *testing.T) {
	cfg := config.Baseline()
	var uops []isa.MicroOp
	seq := uint64(0)
	add := func(u isa.MicroOp) {
		u.Seq, u.MacroSeq = seq, seq
		u.SoM, u.EoM = true, true
		u.PC = 0x400000
		seq++
		uops = append(uops, u)
	}
	for i := 0; i < 3000; i++ {
		if i%100 == 50 {
			add(isa.MicroOp{Class: isa.FpDiv, Dest: isa.NumIntRegs, Src1: isa.NumIntRegs, Src2: isa.RegNone})
			continue
		}
		add(isa.MicroOp{Class: isa.IntAlu, Dest: 3, Src1: 3, Src2: isa.RegNone})
	}
	tr := simTrace(t, cfg, uops)

	visible := func(a *Analysis) bool {
		for _, seg := range a.Segments {
			for i := range seg.Stacks {
				if seg.Stacks[i].Counts[stacks.FpDiv] > 0 {
					return true
				}
			}
		}
		return false
	}
	on := DefaultOptions()
	aOn, err := Analyze(tr, &cfg.Structure, &cfg.Lat, on)
	if err != nil {
		t.Fatal(err)
	}
	if !visible(aOn) {
		t.Error("uniqueness on: FpDiv disappeared from every representative stack")
	}
	off := DefaultOptions()
	off.PreserveUnique = false
	off.CosineThreshold = 0.2
	aOff, err := Analyze(tr, &cfg.Structure, &cfg.Lat, off)
	if err != nil {
		t.Fatal(err)
	}
	if visible(aOff) {
		t.Log("note: FpDiv survived even without preservation (merging was not aggressive enough to erase it)")
	}
}

// TestReductionKeepsFewStacks confirms the core premise: the surviving
// representative set is small.
func TestReductionKeepsFewStacks(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("433.milc")
	tr := simTrace(t, cfg, workload.Stream(prof, 4, 10000))
	a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perSeg := float64(a.NumStacks()) / float64(len(a.Segments))
	if perSeg > 40 {
		t.Fatalf("%.1f stacks per segment survive; reduction is not reducing", perSeg)
	}
}

// TestRepresentativeTotalEqualsPredict ties the reporting stack to the
// prediction.
func TestRepresentativeTotalEqualsPredict(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("470.lbm")
	tr := simTrace(t, cfg, workload.Stream(prof, 4, 6000))
	a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []stacks.Latencies{cfg.Lat, cfg.Lat.With(stacks.MemD, 66)} {
		l := l
		rep := a.Representative(&l)
		if d := rep.Total(&l) - a.Predict(&l); d > 1e-6 || d < -1e-6 {
			t.Fatalf("Representative total differs from Predict by %g", d)
		}
	}
}

// TestAnalyzeRangeErrors covers window validation.
func TestAnalyzeRangeErrors(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("456.hmmer")
	tr := simTrace(t, cfg, workload.Stream(prof, 4, 500))
	if _, err := AnalyzeRange(tr, &cfg.Structure, &cfg.Lat, DefaultOptions(), -1, 10); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := AnalyzeRange(tr, &cfg.Structure, &cfg.Lat, DefaultOptions(), 10, 5); err == nil {
		t.Fatal("inverted window accepted")
	}
	if _, err := Analyze(&trace.Trace{}, &cfg.Structure, &cfg.Lat, DefaultOptions()); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := DefaultOptions()
	bad.SegmentLength = -1
	if _, err := Analyze(tr, &cfg.Structure, &cfg.Lat, bad); err == nil {
		t.Fatal("invalid options accepted")
	}
}
