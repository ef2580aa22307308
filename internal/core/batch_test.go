package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// batchSubstrate simulates a workload, runs the RpStacks pipeline, and
// randomizes a list of latency design points around the baseline.
func batchSubstrate(t *testing.T, name string, seed int64, n, npts int) (*Analysis, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	uops := workload.Stream(prof, seed, n)
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
	rng := rand.New(rand.NewSource(seed))
	knobs := []stacks.Event{stacks.L1D, stacks.L2D, stacks.MemD, stacks.Branch, stacks.IntMul, stacks.FpAdd, stacks.FpMul}
	pts := make([]stacks.Latencies, npts)
	for i := range pts {
		pts[i] = cfg.Lat
		for _, e := range knobs {
			// Non-integral latencies stress the float64 dot products whose
			// summation order the batch path must reproduce exactly.
			pts[i][e] *= 0.5 + 3*rng.Float64()
		}
	}
	return a, pts
}

// TestBatchPredictorMatchesScalar is the batch-vs-scalar differential for the
// RpStacks engine: for every lane width — one, odd widths that force ragged
// final batches, powers of two, the whole list in one batch, and a predictor
// wider than the list — BatchPredictor.Predict must reproduce
// Analysis.Predict with exact float64 equality (same event order within a
// stack, same strict-greater winner per segment, same segment-order
// summation), not approximate closeness. An empty batch must leave the
// output untouched. Run it under -race: predictors share one Analysis.
func TestBatchPredictorMatchesScalar(t *testing.T) {
	a, pts := batchSubstrate(t, "416.gamess", 11, 12000, 100)
	want := make([]float64, len(pts))
	for i := range pts {
		want[i] = a.Predict(&pts[i])
	}
	for _, k := range []int{1, 2, 3, 7, 8, 64, len(pts), 2 * len(pts)} {
		bp := a.NewBatchPredictor(k)
		if bp.Width() != k {
			t.Fatalf("k=%d: Width() = %d", k, bp.Width())
		}
		out := make([]float64, k)
		out[0] = -1
		bp.Predict(nil, out[:0])
		if out[0] != -1 {
			t.Fatalf("k=%d: empty batch wrote %v", k, out[0])
		}
		for lo := 0; lo < len(pts); lo += k {
			hi := lo + k
			if hi > len(pts) {
				hi = len(pts) // ragged final batch
			}
			bp.Predict(pts[lo:hi], out[:hi-lo])
			for i := lo; i < hi; i++ {
				if out[i-lo] != want[i] {
					t.Fatalf("k=%d point %d: batch %v != scalar %v", k, i, out[i-lo], want[i])
				}
			}
		}
	}
}

// TestBatchPredictorPanics pins the contract violations Predict rejects.
func TestBatchPredictorPanics(t *testing.T) {
	a, pts := batchSubstrate(t, "456.hmmer", 3, 3000, 4)
	bp := a.NewBatchPredictor(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	out := make([]float64, 4)
	mustPanic("batch wider than K", func() { bp.Predict(pts, out) })
	mustPanic("short output buffer", func() { bp.Predict(pts[:2], out[:1]) })
	if w := a.NewBatchPredictor(-3).Width(); w != 1 {
		t.Errorf("negative lane count resolves to width %d, want 1", w)
	}
}

// TestBatchPredictorAllocFree pins the sweep-engine budget on the RpStacks
// side: once a BatchPredictor exists, re-predicting batches allocates
// nothing. It runs on randomized non-integral points and on jobGrid points,
// where the screen must skip stacks while allocations are counted.
func TestBatchPredictorAllocFree(t *testing.T) {
	hmmer, random := batchSubstrate(t, "456.hmmer", 9, 3000, 8)
	gamess, _ := batchSubstrate(t, "416.gamess", 3, 6000, 0)
	for _, c := range []struct {
		name     string
		a        *Analysis
		pts      []stacks.Latencies
		mustSkip bool
	}{
		{"random points", hmmer, random, false},
		{"job grid", gamess, jobGrid(config.Baseline().Lat)[:8], true},
	} {
		bp := c.a.NewBatchPredictor(len(c.pts))
		out := make([]float64, len(c.pts))
		bp.Predict(c.pts, out) // warm up
		_, skipped := bp.StackBatches()
		var sink float64
		if n := testing.AllocsPerRun(50, func() {
			bp.Predict(c.pts, out)
			sink += out[0]
		}); n != 0 {
			t.Errorf("%s: Predict allocates %.1f per run, want 0", c.name, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			bp.Predict(c.pts[:3], out[:3])
			sink += out[2]
		}); n != 0 {
			t.Errorf("%s: ragged Predict allocates %.1f per run, want 0", c.name, n)
		}
		if _, after := bp.StackBatches(); c.mustSkip && after == skipped {
			t.Errorf("%s: the screen skipped no stack while allocations were counted", c.name)
		}
		_ = sink
	}
}

// screenAnalysis builds a random analysis shaped to stress the per-batch
// screen: 1–4 segments of 1–40 stacks each, with zero counts, non-integer
// (SimPoint-style scaled) counts, duplicated stacks (exact ties of both box
// corners' totals) and scaled copies that fall just inside or outside the
// screen's margin. The first stack of segment 0 holds at least one Base
// cycle and an all-zero stack sits somewhere in that segment, so every
// batch of finite latencies has a stack the screen must skip.
func screenAnalysis(rng *rand.Rand) *Analysis {
	a := &Analysis{Baseline: config.Baseline().Lat, MicroOps: 1, Opts: DefaultOptions()}
	nseg := 1 + rng.Intn(4)
	for si := 0; si < nseg; si++ {
		n := 1 + rng.Intn(40)
		sts := make([]stacks.Stack, 0, n+1)
		for len(sts) < n {
			var st stacks.Stack
			switch r := rng.Intn(8); {
			case r == 0 && len(sts) > 0: // an exact duplicate
				st = sts[rng.Intn(len(sts))]
			case r == 1 && len(sts) > 0: // a copy scaled by 1 ± 2^-k
				w := 1 + float64(1-2*rng.Intn(2))*math.Ldexp(1, -10-rng.Intn(40))
				st = sts[rng.Intn(len(sts))].Scaled(w)
			default:
				scale := 1.0
				if rng.Intn(2) == 0 {
					scale = 0.01 + 3*rng.Float64() // non-integer counts
				}
				for e := range st.Counts {
					if rng.Intn(3) > 0 {
						st.Counts[e] = float64(rng.Intn(1<<uint(rng.Intn(21)))) * scale
					}
				}
			}
			sts = append(sts, st)
		}
		if si == 0 {
			sts[0].Counts[stacks.Base] += 1
			at := rng.Intn(len(sts) + 1)
			sts = append(sts[:at], append([]stacks.Stack{{}}, sts[at:]...)...)
		}
		a.Segments = append(a.Segments, Segment{Lo: si, Hi: si + 1, Stacks: sts})
	}
	return a
}

// screenPoints returns n valid design points. A narrow box keeps every lane
// at one point or one step from it; a wide box draws every knob
// log-uniformly over six decades. Either may pin ITLB, DTLB and Store at
// zero and push single events to extreme magnitudes (subnormal up to 1e150).
func screenPoints(rng *rand.Rand, n int, wide bool) []stacks.Latencies {
	center := config.Baseline().Lat
	for e := stacks.Event(1); e < stacks.NumEvents; e++ {
		center[e] *= math.Exp2(float64(rng.Intn(9) - 4))
	}
	extremes := []float64{5e-324, 1e-310, 1e-200, 1e100, 1e150}
	pts := make([]stacks.Latencies, n)
	for i := range pts {
		l := center
		for e := stacks.Event(1); e < stacks.NumEvents; e++ {
			switch {
			case wide:
				l[e] = center[e] * math.Pow(10, 6*rng.Float64()-3)
			case rng.Intn(4) == 0:
				l[e] = center[e] + 1
			}
			if rng.Intn(16) == 0 {
				l[e] = extremes[rng.Intn(len(extremes))]
			}
		}
		for _, e := range []stacks.Event{stacks.ITLB, stacks.DTLB, stacks.Store} {
			if rng.Intn(3) == 0 {
				l[e] = 0
			}
		}
		pts[i] = l
	}
	return pts
}

// FuzzBatchPredictScreen checks that the per-batch screen never changes a
// prediction: over random analyses and batches of 1–32 lanes in narrow and
// wide boxes, every lane of BatchPredictor.Predict must have the float64
// bits of Analysis.Predict. Every batch must also skip at least the
// all-zero stack screenAnalysis plants, so a screen that never skips fails.
func FuzzBatchPredictScreen(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) {
		rng := rand.New(rand.NewSource(seed))
		a := screenAnalysis(rng)
		pts := screenPoints(rng, 1+rng.Intn(64), wide)
		for _, l := range pts {
			if err := l.Validate(); err != nil {
				t.Fatalf("generated an invalid point: %v", err)
			}
		}
		k := 1 + rng.Intn(32)
		bp := a.NewBatchPredictor(k)
		out := make([]float64, k)
		batches := int64(0)
		for lo := 0; lo < len(pts); lo += k {
			hi := min(lo+k, len(pts))
			bp.Predict(pts[lo:hi], out[:hi-lo])
			batches++
			for i := lo; i < hi; i++ {
				if got, want := out[i-lo], a.Predict(&pts[i]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d point %d: batch %v (%#x) != scalar %v (%#x)",
						k, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		evaluated, skipped := bp.StackBatches()
		if skipped < batches {
			t.Fatalf("screen skipped %d stack-batches over %d batches, want at least one per batch", skipped, batches)
		}
		if evaluated+skipped != batches*int64(a.NumStacks()) {
			t.Fatalf("%d evaluated + %d skipped stack-batches, want %d", evaluated, skipped, batches*int64(a.NumStacks()))
		}
	})
}

// jobGrid is a fixed 512-point grid over L1D (1–8), L2D, FpAdd and FpMul
// (4 values each), a coarse sample of the knobs an RpStacks job sweeps. The
// counts TestBatchPredictScreenPinned pins belong to this grid; the root
// package's BenchmarkBatchPredictJobGrid runs rpbench's full job grid.
func jobGrid(base stacks.Latencies) []stacks.Latencies {
	var pts []stacks.Latencies
	for _, fm := range []float64{1, 4, 8, 16} {
		for _, fa := range []float64{1, 4, 8, 16} {
			for _, l2 := range []float64{6, 10, 14, 20} {
				for l1 := 1.0; l1 <= 8; l1++ {
					l := base
					l[stacks.L1D], l[stacks.L2D], l[stacks.FpAdd], l[stacks.FpMul] = l1, l2, fa, fm
					pts = append(pts, l)
				}
			}
		}
	}
	return pts
}

// TestBatchPredictScreenPinned pins how much re-weighting the screen saves
// on one fixed workload and grid: 32-lane batches over jobGrid on a
// 416.gamess analysis of 35 stacks over 2 segments, where the screen keeps
// one stack per segment in every batch. A screen that keeps more stacks
// moves these counts.
func TestBatchPredictScreenPinned(t *testing.T) {
	a, _ := batchSubstrate(t, "416.gamess", 3, 6000, 0)
	pts := jobGrid(config.Baseline().Lat)
	bp := a.NewBatchPredictor(32)
	out := make([]float64, 32)
	for lo := 0; lo < len(pts); lo += 32 {
		bp.Predict(pts[lo:lo+32], out)
		for i := range out {
			if want := a.Predict(&pts[lo+i]); out[i] != want {
				t.Fatalf("point %d: batch %v != scalar %v", lo+i, out[i], want)
			}
		}
	}
	evaluated, skipped := bp.StackBatches()
	t.Logf("%d stacks in %d segments: %d evaluated, %d skipped stack-batches", a.NumStacks(), len(a.Segments), evaluated, skipped)
	if evaluated != 32 || skipped != 528 {
		t.Errorf("stack-batches: %d evaluated, %d skipped; want 32, 528", evaluated, skipped)
	}
}
