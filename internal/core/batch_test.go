package core

import (
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
// nothing.
func TestBatchPredictorAllocFree(t *testing.T) {
	a, pts := batchSubstrate(t, "456.hmmer", 9, 3000, 8)
	bp := a.NewBatchPredictor(len(pts))
	out := make([]float64, len(pts))
	bp.Predict(pts, out) // warm up
	var sink float64
	if n := testing.AllocsPerRun(50, func() {
		bp.Predict(pts, out)
		sink += out[0]
	}); n != 0 {
		t.Errorf("Predict allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		bp.Predict(pts[:3], out[:3])
		sink += out[2]
	}); n != 0 {
		t.Errorf("ragged Predict allocates %.1f per run, want 0", n)
	}
	_ = sink
}
