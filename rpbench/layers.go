package main

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/trace"
)

// layers.go times calls into the program's layers from outside: the laps
// of a traced run, and the probes that measure one layer at a time.

// lap runs fn and, on a traced run, records its duration under layer.
func (r *run) lap(layer string, fn func() error) error {
	if !r.traced {
		return fn()
	}
	start := time.Now()
	err := fn()
	r.record(layer, time.Since(start), 1)
	return err
}

// record adds one duration of layer, divided over n operations.
func (r *run) record(layer string, d time.Duration, n int) {
	r.laps[layer] = append(r.laps[layer], float64(d)/float64(n))
}

// lapMedian returns the median recorded duration of layer in unit.
func (r *run) lapMedian(layer string, unit time.Duration) float64 {
	return median(r.laps[layer]) / float64(unit)
}

// predErr scores a canonical-order sweep against re-simulation on the
// fixed audit sample of its grid (audit seed 0), returning the mean
// absolute CPI error in percent. It runs outside every timed region.
func (r *run) predErr(rep *dse.Report, oracle audit.Oracle) (float64, error) {
	start := time.Now()
	arep, err := audit.Run(rep, oracle, nil, audit.Options{
		Fraction:    1,
		MaxPoints:   r.size.auditPoints,
		Parallelism: runtime.GOMAXPROCS(0),
	})
	r.oracleTime += time.Since(start)
	if err != nil {
		return 0, err
	}
	r.check(arep.Audited == arep.Sampled && arep.Audited > 0,
		"audit scored %d of %d sampled points", arep.Audited, arep.Sampled)
	r.samples["pred_err_pct"] += arep.Audited
	return arep.MeanErrorPct, nil
}

// rpStacksErr is the mean pred_err_pct of analyses[k] against re-simulating
// subs[k], each on the canonical grid.
func (r *run) rpStacksErr(cfg *config.Config, subs []*subject, analyses []*core.Analysis, canon []stacks.Latencies) (float64, error) {
	var mean float64
	for k, a := range analyses {
		opts := sweepOpts()
		opts.NeedFingerprint = true
		rep, err := dse.ExploreRpStacksOpts(a, canon, opts)
		if err != nil {
			return 0, err
		}
		e, err := r.predErr(rep, subs[k].oracle(cfg))
		if err != nil {
			return 0, err
		}
		mean += e / float64(len(analyses))
	}
	return mean, nil
}

// segmentWindows lays out the segment windows of an analysis exactly as
// core.AnalyzeRange does: fixed length, snapped forward to macro-op starts.
func segmentWindows(tr *trace.Trace, length int) [][2]int {
	var wins [][2]int
	n := len(tr.Records)
	for lo := 0; lo < n; {
		hi := min(lo+length, n)
		for hi < n && !tr.Records[hi].SoM {
			hi++
		}
		wins = append(wins, [2]int{lo, hi})
		lo = hi
	}
	return wins
}

// decomposeAnalysis rebuilds an analysis one segment at a time —
// depgraph.Build then core.AnalyzeGraph per window, as core.Analyze lays
// them out — checks it encodes to the same bytes as the analysis under
// test, and returns the two layers' busy times.
func (r *run) decomposeAnalysis(tr *trace.Trace, cfg *config.Config, opts core.Options, want []byte) (build, gen time.Duration, err error) {
	a := &core.Analysis{Baseline: cfg.Lat, MicroOps: len(tr.Records), Opts: opts}
	for _, w := range segmentWindows(tr, opts.SegmentLength) {
		t := time.Now()
		g, err := depgraph.Build(tr, &cfg.Structure, w[0], w[1])
		if err != nil {
			return 0, 0, err
		}
		build += time.Since(t)
		t = time.Now()
		st := core.AnalyzeGraph(g, &cfg.Lat, opts)
		gen += time.Since(t)
		a.Segments = append(a.Segments, core.Segment{Lo: w[0], Hi: w[1], Stacks: st})
	}
	got, err := encodeAnalysis(a)
	if err != nil {
		return 0, 0, err
	}
	r.check(bytes.Equal(got, want), "segment-wise analysis differs from core.Analyze")
	return build, gen, nil
}

// predictProbe times scalar Analysis.Predict and a BatchPredictor of the
// given width over points, per point, and checks the two agree.
func (r *run) predictProbe(a *core.Analysis, points []stacks.Latencies, width int) {
	width = max(width, 1)
	scalar := make([]float64, len(points))
	t := time.Now()
	for i := range points {
		scalar[i] = a.Predict(&points[i])
	}
	r.record("core.predict", time.Since(t), len(points))
	bp := a.NewBatchPredictor(width)
	batch := make([]float64, len(points))
	t = time.Now()
	for lo := 0; lo < len(points); lo += width {
		hi := min(lo+width, len(points))
		bp.Predict(points[lo:hi], batch[lo:hi])
	}
	r.record("core.batch_predict", time.Since(t), len(points))
	same := true
	for i := range scalar {
		same = same && scalar[i] == batch[i]
	}
	r.check(same, "batched predictions differ from Analysis.Predict")
}

// graphProbe times BatchEvaluator.LongestPaths at width and scalar
// Evaluator.LongestPath over points, per point, checks they agree, and
// returns the graph's weight-class count.
func (r *run) graphProbe(g *depgraph.Graph, points []stacks.Latencies, width int) float64 {
	width = max(min(width, len(points)), 1)
	ev := g.NewEvaluator()
	scalar := make([]int64, len(points))
	t := time.Now()
	for i := range points {
		scalar[i] = ev.LongestPath(&points[i])
	}
	r.record("depgraph.scalar_point", time.Since(t), len(points))
	be := g.NewBatchEvaluator(width)
	batch := make([]int64, len(points))
	t = time.Now()
	for lo := 0; lo < len(points); lo += width {
		hi := min(lo+width, len(points))
		be.LongestPaths(points[lo:hi], batch[lo:hi])
	}
	r.record("depgraph.batch_point", time.Since(t), len(points))
	same := true
	for i := range scalar {
		same = same && scalar[i] == batch[i]
	}
	r.check(same, "batched longest paths differ from Evaluator.LongestPath")
	return float64(be.WeightClasses())
}
