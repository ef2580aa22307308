package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
)

// graphSweep simulates one 437.leslie3d trace, builds its whole-trace
// dependence graph and sweeps the graph model over a Fig 13-sized grid
// again and again with rpexplore's defaults. depgraph.BatchEvaluator is
// nearly all of its time; core is never called.
func graphSweep(r *run) error {
	cfg := config.Baseline()
	rng := rand.New(rand.NewSource(r.seed))
	s, err := newSubject("437.leslie3d", r.size.graphUOps)
	if err != nil {
		return err
	}

	// Timed: repeated setups, simulate plus graph build. The setup is short
	// (~0.1 s), so it is repeated for a steady median.
	var setups, sims, builds []float64
	var tr *trace.Trace
	var g *depgraph.Graph
	digest := ""
	start := time.Now()
	for i := 0; i < 5 || time.Since(start) < r.budget*5/100; i++ {
		t0 := time.Now()
		if tr, err = s.simulate(cfg); err != nil {
			return err
		}
		sim := time.Since(t0)
		t := time.Now()
		if g, err = depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records)); err != nil {
			return err
		}
		build := time.Since(t)
		setups = append(setups, seconds(time.Since(t0)))
		sims = append(sims, seconds(sim))
		builds = append(builds, seconds(build))
		d := trace.Digest(tr)
		r.check(digest == "" || d == digest, "trace digest changed between identical simulations")
		digest = d
	}

	// Untimed reference: scalar Evaluator.LongestPath on a fixed sample.
	points, err := grid(cfg, shuffleAxes(rng, r.size.sweepAxes))
	if err != nil {
		return err
	}
	sample := rng.Perm(len(points))[:min(8, len(points))]
	want := make([]float64, len(sample))
	ev := g.NewEvaluator()
	for k, i := range sample {
		want[k] = float64(ev.LongestPath(&points[i]))
	}

	r.calibrate()
	// Timed: the repeated sweep.
	var rates, allocs, walls, widths []float64
	var first []dse.Result
	start = time.Now()
	for i := 0; i < r.size.minReps || time.Since(start) < r.budget*50/100; i++ {
		a0 := totalAlloc()
		rep, err := dse.ExploreGraphOpts(g, points, sweepOpts())
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		rates = append(rates, float64(len(points))/rep.Wall.Seconds())
		walls = append(walls, seconds(rep.Wall))
		widths = append(widths, float64(rep.Batch))
		ok := true
		for k, idx := range sample {
			ok = ok && rep.Results[idx].Cycles == want[k]
		}
		if first == nil {
			first = rep.Results
		}
		for idx := range first {
			ok = ok && rep.Results[idx].Cycles == first[idx].Cycles
		}
		r.check(ok, "graph sweep %d differs from Evaluator.LongestPath or from the first sweep", i)
	}
	r.info["sweep_widths"] = widthCounts(widths)

	r.calibrate()
	// Timed: graph exploration jobs.
	jobPts, err := grid(cfg, shuffleAxes(rng, r.size.graphJobAxes))
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(r.workdir, "jobs"), store.Options{})
	if err != nil {
		return err
	}
	job, err := r.graphJob(st, cfg, s.app, tr, g, jobPts)
	if err != nil {
		return err
	}
	r.libraryJobs([]*libJob{job}, r.budget*40/100)

	// Untimed: accuracy of the graph model against re-simulation.
	canon, err := grid(cfg, r.size.graphJobAxes)
	if err != nil {
		return err
	}
	rep, err := dse.ExploreGraphOpts(g, canon, dse.ExploreOptions{Parallelism: sweepOpts().Parallelism, NeedFingerprint: true})
	if err != nil {
		return err
	}
	errPct, err := r.predErr(rep, s.oracle(cfg))
	if err != nil {
		return err
	}

	r.setMedian("setup_s", setups)
	r.setMedian("alloc_mb", allocs)
	r.setMedian("points_per_s", rates)
	r.set("pred_err_pct", errPct)
	if !r.traced {
		return nil
	}

	uops := float64(len(tr.Records))
	r.set("bench.traced_setup_s", median(setups))
	r.set("cpu.simulate_s", median(sims))
	r.set("cpu.uops_per_s", uops/median(sims))
	r.set("depgraph.build_s", median(builds))
	r.set("depgraph.build_uops_per_s", uops/median(builds))
	width := int(median(widths))
	probe := points[:min(4*width, len(points))]
	r.set("depgraph.weight_classes", r.graphProbe(g, probe, width))
	r.set("depgraph.batch_point_us", r.lapMedian("depgraph.batch_point", time.Microsecond))
	r.set("depgraph.scalar_point_us", r.lapMedian("depgraph.scalar_point", time.Microsecond))
	r.set("dse.sweep_s", median(walls))
	r.set("dse.batch_width", median(widths))
	return nil
}

// widthCounts tallies the batch widths the autotuner chose.
func widthCounts(widths []float64) map[int]int {
	out := make(map[int]int)
	for _, w := range widths {
		out[int(w)]++
	}
	return out
}

// graphJob publishes the trace to the job store and returns the graph
// library job over points: mem sweeps the graph in hand; disk decodes the
// trace and rebuilds the graph first. The reference answer is the serial
// scalar sweep.
func (r *run) graphJob(st *store.Store, cfg *config.Config, app string, tr *trace.Trace, g *depgraph.Graph, points []stacks.Latencies) (*libJob, error) {
	blob, err := encodeTrace(tr)
	if err != nil {
		return nil, err
	}
	key := "trace|" + app
	if err := publish(st, key, blob); err != nil {
		return nil, err
	}
	ref, err := dse.ExploreGraphOpts(g, points, dse.ExploreOptions{BatchSize: 1})
	if err != nil {
		return nil, err
	}
	return &libJob{
		app:    app,
		points: len(points),
		want:   answerOf(ref.Results),
		mem:    func() (*dse.Report, error) { return dse.ExploreGraphOpts(g, points, sweepOpts()) },
		disk: func() (*dse.Report, error) {
			tr, err := decodeTrace(st, key)
			if err != nil {
				return nil, err
			}
			g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
			if err != nil {
				return nil, err
			}
			return dse.ExploreGraphOpts(g, points, sweepOpts())
		},
	}, nil
}
