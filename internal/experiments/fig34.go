package experiments

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/stats"
)

// CraftedOverlap builds the paper's motivating pattern (Figures 1a, 3 and
// 4): every iteration issues an independent memory-missing load alongside a
// floating-point divide chain of nearly the same length, so two
// near-critical paths coexist and overlap. n is the iteration count.
func CraftedOverlap(n int) []isa.MicroOp {
	var uops []isa.MicroOp
	seq := uint64(0)
	mseq := uint64(0)
	pc := uint64(0x400000)
	emit := func(u isa.MicroOp) {
		u.Seq = seq
		u.MacroSeq = mseq
		u.PC = pc
		u.SoM, u.EoM = true, true
		seq++
		mseq++
		uops = append(uops, u)
	}
	// Two serial chains share the pipeline: a pointer-chase load chain
	// (every address depends on the previous load; every access misses to
	// memory) and a floating-point divide chain (5 x 24 = 120 cycles per
	// iteration at the baseline, just under one serial miss). Both chains
	// are dependency-serial, so neither is throttled by functional-unit
	// structural limits — they are genuinely two near-critical *paths*.
	state := uint64(0x9E3779B97F4A7C15)
	const region = uint64(64) << 20
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		addr := (uint64(3) << 30) + (state>>17%(region/64))*64
		emit(isa.MicroOp{Class: isa.Load, Dest: 2, Src1: 2, Src2: isa.RegNone, Addr: addr})
		for j := 0; j < 5; j++ {
			emit(isa.MicroOp{Class: isa.FpDiv, Dest: isa.NumIntRegs, Src1: isa.NumIntRegs,
				Src2: isa.RegNone})
		}
	}
	return uops
}

// Fig3Result reproduces Figure 3's point: the pipeline-stall analysis (FMT)
// charges overlapped penalties to a single event and cannot see the
// fine-grained FP chain at all, while RpStacks keeps both decompositions.
type Fig3Result struct {
	FmtStack stacks.Stack
	// RpStacks holds the representative path stacks of the first segment:
	// the baseline winner plus the preserved alternative paths (including
	// the FP chain hidden under the misses).
	RpStacks []stacks.Stack
	Baseline stacks.Latencies
	MicroOps int
}

// Fig3 runs the crafted overlap workload and contrasts the decompositions.
func (r *Runner) Fig3() (*Fig3Result, error) {
	a, err := r.crafted()
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		FmtStack: a.FMT.Stack(),
		RpStacks: a.Analysis.Segments[0].Stacks,
		Baseline: r.Cfg.Lat,
		MicroOps: len(a.Trace.Records),
	}, nil
}

// String renders the decompositions side by side.
func (f *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: overlapped-event accounting (crafted load-miss ∥ FP-divide chain)\n\n")
	fmt.Fprintf(&b, "FMT stack:          %s\n", f.FmtStack.Format(&f.Baseline))
	show := f.RpStacks
	if len(show) > 4 {
		show = show[:4]
	}
	for i := range show {
		fmt.Fprintf(&b, "RpStacks path %d:    %s\n", i+1, show[i].Format(&f.Baseline))
	}
	fdiv := f.FmtStack.Counts[stacks.FpDiv] * f.Baseline[stacks.FpDiv]
	fmt.Fprintf(&b, "\nFMT charges %.0f cycles to the FP divides hidden under the misses —\n", fdiv)
	fmt.Fprintf(&b, "pipeline-stall accounting is blind to overlapped fine-grained events,\n")
	fmt.Fprintf(&b, "while RpStacks preserves the FP-divide path among its representatives.\n")
	return b.String()
}

// Fig4Result reproduces Figure 4b: when a latency change makes the
// secondary path critical, the ex-critical-path prediction (CP1) goes
// wrong while RpStacks — holding both paths — stays accurate.
type Fig4Result struct {
	Scenario string
	TruthCPI float64
	RpCPI    float64
	Cp1CPI   float64
	RpErr    float64
	Cp1Err   float64
}

// Fig4 optimizes the memory latency of the crafted workload so the FP chain
// becomes the critical path.
func (r *Runner) Fig4() (*Fig4Result, error) {
	a, err := r.crafted()
	if err != nil {
		return nil, err
	}
	l := r.Cfg.Lat.Scale(stacks.MemD, 0.5) // 133 -> 67: FP chain now dominates
	truth, err := r.Truth(a, &l)
	if err != nil {
		return nil, err
	}
	n := float64(len(a.Trace.Records))
	res := &Fig4Result{
		Scenario: "MemD halved",
		TruthCPI: truth / n,
		RpCPI:    a.Analysis.Predict(&l) / n,
		Cp1CPI:   a.CP1.Predict(&l) / n,
	}
	res.RpErr = stats.AbsPctErr(res.RpCPI, res.TruthCPI)
	res.Cp1Err = stats.AbsPctErr(res.Cp1CPI, res.TruthCPI)
	return res, nil
}

// String renders the misprediction contrast.
func (f *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: critical-path switch (%s)\n\n", f.Scenario)
	fmt.Fprintf(&b, "truth CPI %.3f | RpStacks %.3f (err %.1f%%) | CP1 %.3f (err %.1f%%)\n",
		f.TruthCPI, f.RpCPI, f.RpErr, f.Cp1CPI, f.Cp1Err)
	fmt.Fprintf(&b, "\nCP1 follows the ex-critical memory path; RpStacks kept the FP path alive.\n")
	return b.String()
}

// crafted prepares the synthetic overlap workload through the same caching
// pipeline as the suite workloads.
func (r *Runner) crafted() (*App, error) {
	const name = "crafted.overlap"
	if a, ok := r.apps[name]; ok {
		return a, nil
	}
	n := r.MicroOps / 6
	if n < 16 {
		n = 16
	}
	if n > 400 {
		n = 400
	}
	// The crafted chains never warm (every miss is intentional).
	a, err := r.prepare(name, nil, nil, nil, CraftedOverlap(n))
	if err != nil {
		return nil, err
	}
	return a, nil
}
