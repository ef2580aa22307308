package depgraph

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// batchSubstrate simulates a workload and builds its dependence graph plus a
// list of randomized latency design points around the baseline.
func batchSubstrate(t *testing.T, name string, seed int64, n, npts int) (*Graph, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	uops := workload.Stream(prof, seed, n)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	knobs := []stacks.Event{stacks.L1D, stacks.L2D, stacks.MemD, stacks.Branch, stacks.IntMul, stacks.FpAdd, stacks.FpMul}
	pts := make([]stacks.Latencies, npts)
	for i := range pts {
		pts[i] = cfg.Lat
		for _, e := range knobs {
			// Non-integral scales exercise the float64 accumulation and int64
			// truncation inside Weight.Cycles, where bit-identity could break.
			pts[i][e] *= 0.5 + 3*rng.Float64()
		}
	}
	return g, pts
}

// TestBatchEvaluatorMatchesScalar is the batch-vs-scalar differential for the
// graph engine: for every lane width — one, odd widths that force ragged
// final batches, powers of two, and the degenerate
// whole-list-in-one-batch width — LongestPaths must reproduce
// Evaluator.LongestPath bit for bit on every design point. Run it under
// -race: the scalar and batch evaluators share one Graph.
func TestBatchEvaluatorMatchesScalar(t *testing.T) {
	g, pts := batchSubstrate(t, "429.mcf", 11, 6000, 100)
	ev := g.NewEvaluator()
	want := make([]int64, len(pts))
	for i := range pts {
		want[i] = ev.LongestPath(&pts[i])
	}
	for _, k := range []int{1, 2, 3, 7, 8, 64, len(pts)} {
		be := g.NewBatchEvaluator(k)
		if be.Width() != k {
			t.Fatalf("k=%d: Width() = %d", k, be.Width())
		}
		if be.WeightClasses() < 1 || be.WeightClasses() > len(g.edges) {
			t.Fatalf("k=%d: %d weight classes for %d edges", k, be.WeightClasses(), len(g.edges))
		}
		out := make([]int64, k)
		for lo := 0; lo < len(pts); lo += k {
			hi := lo + k
			if hi > len(pts) {
				hi = len(pts) // ragged final batch
			}
			be.LongestPaths(pts[lo:hi], out[:hi-lo])
			for i := lo; i < hi; i++ {
				if out[i-lo] != want[i] {
					t.Fatalf("k=%d point %d: batch %d != scalar %d", k, i, out[i-lo], want[i])
				}
			}
		}
	}
}

// TestBatchEvaluatorWiderThanPoints covers width exceeding the point count:
// a partial batch through an oversized evaluator must still match the scalar
// path exactly, and reuse at a different batch size must not leak state
// between calls.
func TestBatchEvaluatorWiderThanPoints(t *testing.T) {
	g, pts := batchSubstrate(t, "456.hmmer", 3, 2000, 5)
	ev := g.NewEvaluator()
	be := g.NewBatchEvaluator(128)
	out := make([]int64, 128)
	be.LongestPaths(pts, out[:len(pts)])
	for i := range pts {
		if want := ev.LongestPath(&pts[i]); out[i] != want {
			t.Fatalf("point %d: batch %d != scalar %d", i, out[i], want)
		}
	}
	// A smaller follow-up batch, reversed, through the same scratch.
	be.LongestPaths(pts[3:], out[:2])
	for i, p := 0, 3; p < len(pts); i, p = i+1, p+1 {
		if want := ev.LongestPath(&pts[p]); out[i] != want {
			t.Fatalf("reused scratch, point %d: batch %d != scalar %d", p, out[i], want)
		}
	}
	// Empty batches are no-ops.
	be.LongestPaths(nil, nil)
}

// TestBatchEvaluatorPanics pins the contract violations LongestPaths rejects:
// more points than lanes, and an output buffer shorter than the batch.
func TestBatchEvaluatorPanics(t *testing.T) {
	g, pts := batchSubstrate(t, "456.hmmer", 7, 800, 4)
	be := g.NewBatchEvaluator(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	out := make([]int64, 4)
	mustPanic("batch wider than K", func() { be.LongestPaths(pts, out) })
	mustPanic("short output buffer", func() { be.LongestPaths(pts[:2], out[:1]) })
}

// TestBatchEvaluatorMinWidth checks lane counts below one are raised to a
// one-lane evaluator rather than producing a zero-width scratch.
func TestBatchEvaluatorMinWidth(t *testing.T) {
	g, pts := batchSubstrate(t, "456.hmmer", 5, 500, 1)
	be := g.NewBatchEvaluator(0)
	if be.Width() != 1 {
		t.Fatalf("Width() = %d, want 1", be.Width())
	}
	var out [1]int64
	be.LongestPaths(pts, out[:])
	if want := g.NewEvaluator().LongestPath(&pts[0]); out[0] != want {
		t.Fatalf("one-lane batch %d != scalar %d", out[0], want)
	}
}
