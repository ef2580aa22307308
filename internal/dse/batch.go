package dse

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// batch.go — K-wide design-point evaluation, the one way the sweeps and the
// searches evaluate design points. Each engine is wired once here into an
// engineEval: per-worker scratch evaluating up to width design points per
// pass over the engine's model (the graph and RpStacks engines), or one
// point per call (the sim engine, a width-1 adapter over re-simulation).

// engineEval is one engine's per-worker evaluation closure, shared by
// runPoints and the search rounds.
type engineEval struct {
	// batch evaluates len(lats) ≤ width design points in one model pass on
	// the worker's scratch, writing cycle counts into out in lats order.
	batch func(worker int, lats []stacks.Latencies, out []float64) error
	// width is the lane capacity of the worker scratches behind batch.
	width int
}

// defaultBatchWidth is the lane width of a sweep whose
// ExploreOptions.BatchSize is zero. Thirty-two lanes amortize the model
// traffic of both batch engines; the graph memory cap narrows it on large
// graphs.
const defaultBatchWidth = 32

// maxGraphBatchInt64s bounds the per-worker distance buffer of a graph
// evaluation (nodes × lanes int64s), explicit widths included: on very
// large graphs the width narrows rather than allocating hundreds of
// megabytes per worker.
const maxGraphBatchInt64s = 1 << 22 // 32 MiB of lanes per worker

// batchWidth is the lane-width rule: requested, or def when requested is
// 0; halved while nodes × width int64 lanes exceed maxGraphBatchInt64s
// (nodes is 0 for engines without a per-lane graph buffer); clamped to the
// point count n. Results are identical at every width, so the rule only
// trades memory against model traffic.
func batchWidth(requested, def, nodes, n int) int {
	w := requested
	if w <= 0 {
		w = def
	}
	for w > 1 && nodes > maxGraphBatchInt64s/w {
		w /= 2
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// graphEval wires one depgraph.BatchEvaluator and its int64 sink per
// worker of a graph evaluation over n points. Each worker builds its
// evaluator on its first batch: the distance buffer is nodes × width
// int64s (up to maxGraphBatchInt64s), and a worker that claims no chunk —
// the second worker of a sweep that fits one chunk — never allocates it.
func graphEval(g *depgraph.Graph, opts ExploreOptions, def, n int) engineEval {
	width := batchWidth(opts.BatchSize, def, g.NumNodes(), n)
	bes := make([]*depgraph.BatchEvaluator, opts.workerCount(n))
	sinks := make([][]int64, len(bes))
	return engineEval{width: width, batch: func(worker int, lats []stacks.Latencies, out []float64) error {
		if bes[worker] == nil {
			bes[worker] = g.NewBatchEvaluator(width)
			sinks[worker] = make([]int64, width)
		}
		sink := sinks[worker][:len(lats)]
		bes[worker].LongestPaths(lats, sink)
		for t, v := range sink {
			out[t] = float64(v)
		}
		return nil
	}}
}

// rpstacksEval wires one core.BatchPredictor per worker of an RpStacks
// evaluation over n points. The analysis is read-only, so the workers share
// it without synchronization.
func rpstacksEval(a *core.Analysis, opts ExploreOptions, def, n int) engineEval {
	width := batchWidth(opts.BatchSize, def, 0, n)
	bps := make([]*core.BatchPredictor, opts.workerCount(n))
	for i := range bps {
		bps[i] = a.NewBatchPredictor(width)
	}
	return engineEval{width: width, batch: func(worker int, lats []stacks.Latencies, out []float64) error {
		bps[worker].Predict(lats, out)
		return nil
	}}
}

// simEval is the re-simulation engine as a width-1 batch: each point clones
// the configuration and runs the timing simulator, so workers share
// nothing. ExploreOptions.BatchSize does not apply.
func simEval(cfg *config.Config, uops []isa.MicroOp) engineEval {
	return engineEval{width: 1, batch: func(_ int, lats []stacks.Latencies, out []float64) error {
		for t := range lats {
			c := cfg.Clone()
			c.Lat = lats[t]
			s, err := cpu.New(c)
			if err != nil {
				return err
			}
			tr, err := s.Run(uops)
			if err != nil {
				return err
			}
			out[t] = float64(tr.Cycles)
		}
		return nil
	}}
}
