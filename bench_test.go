package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// micro-benchmarks behind the cost model. The figure benchmarks share a
// cached Runner (simulations and analyses are reused across iterations), so
// their value is the reported metrics — err%, crossover, speedup — rather
// than ns/op; the Table I/II and Predict benchmarks measure real throughput.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig11b -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchMicroOps keeps whole-suite benchmarks tractable on one core.
const benchMicroOps = 8000

var (
	runnerOnce sync.Once
	benchR     *experiments.Runner
)

func benchRunner() *experiments.Runner {
	runnerOnce.Do(func() { benchR = experiments.NewRunner(benchMicroOps) })
	return benchR
}

// --- Table II: the baseline simulator ---------------------------------

// BenchmarkTableIIBaselineSim measures the cycle-level simulator's
// throughput on the Table II configuration.
func BenchmarkTableIIBaselineSim(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(uops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
}

// --- Table I: the dependence-graph model -------------------------------

// BenchmarkTableIGraphBuild measures dependence-graph construction from a
// trace (all Table I constraints).
func BenchmarkTableIGraphBuild(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	s, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
}

// BenchmarkGraphLongestPath measures one Fields-style reconstruction pass.
func BenchmarkGraphLongestPath(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 20000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LongestPath(&cfg.Lat)
	}
}

// BenchmarkAnalyze measures the full RpStacks generation pipeline
// (segmentation + traversal + reduction) on one worker.
func BenchmarkAnalyze(b *testing.B) { benchAnalyze(b, 0) }

// BenchmarkAnalyzeParallel is the same analysis on GOMAXPROCS workers,
// which share the nodes of both segment graphs. Its output is bit-identical
// to BenchmarkAnalyze's; on a multicore host it should be faster.
func BenchmarkAnalyzeParallel(b *testing.B) { benchAnalyze(b, runtime.GOMAXPROCS(0)) }

func benchAnalyze(b *testing.B, workers int) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 10000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(uops)*b.N)/b.Elapsed().Seconds()/1e3, "kµops/s")
	b.ReportMetric(float64(max(workers, 1)), "workers")
}

// BenchmarkPredictPerPoint measures one RpStacks design-point prediction —
// the constant that makes Figure 13 flat.
func BenchmarkPredictPerPoint(b *testing.B) {
	prof, _ := workload.ByName("416.gamess")
	uops := workload.Stream(prof, 1, 10000)
	cfg := config.Baseline()
	s, _ := cpu.New(cfg)
	tr, err := s.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	l := cfg.Lat.With(stacks.L1D, 2).With(stacks.FpAdd, 3)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += a.Predict(&l)
	}
	_ = sink
}

// jobGridAxes is rpbench's RpStacks job grid (rpbench/inputs.go, jobAxes):
// L1D × L2D × FpAdd × FpMul, 16384 points. rpbench shuffles the axis order
// per seed; the benchmarks here keep this one.
var jobGridAxes = []string{"L1D=1,2,3,4,5,6,7,8", "L2D=6,8,10,12,14,16,18,20",
	"FpAdd=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", "FpMul=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"}

func jobGridSpace(b *testing.B) *dse.Space {
	sp := &dse.Space{}
	for _, spec := range jobGridAxes {
		ax, err := dse.ParseAxisSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		sp.Axes = append(sp.Axes, ax)
	}
	return sp
}

// BenchmarkBatchPredictJobGrid re-weights an analysis over the job grid on
// one BatchPredictor, the per-point cost of Fig 13's flat line, at the lane
// widths batch callers use: 32 (sweeps), 8 (search rounds) and 1 (one-point
// jobs and ragged tails). It reports ns per design point and the share of
// stack-batches the per-batch screen left to re-weight.
func BenchmarkBatchPredictJobGrid(b *testing.B) {
	r := benchRunner()
	points := jobGridSpace(b).Enumerate(r.Cfg.Lat)
	for _, app := range []string{"416.gamess", "433.milc"} {
		for _, width := range []int{32, 8, 1} {
			b.Run(fmt.Sprintf("%s/w%d", app, width), func(b *testing.B) {
				a, err := r.App(app)
				if err != nil {
					b.Fatal(err)
				}
				bp := a.Analysis.NewBatchPredictor(width)
				out := make([]float64, width)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(points); lo += width {
						hi := min(lo+width, len(points))
						bp.Predict(points[lo:hi], out[:hi-lo])
					}
				}
				b.StopTimer()
				evaluated, skipped := bp.StackBatches()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(points)), "ns/point")
				b.ReportMetric(float64(evaluated)/float64(evaluated+skipped), "evaluated-share")
				b.ReportMetric(float64(a.Analysis.NumStacks()), "stacks")
			})
		}
	}
}

// Sinks keep BenchmarkRankJobGrid's measured calls live.
var (
	rankSink   []int
	pointsSink []stacks.Latencies
)

// BenchmarkRankJobGrid measures what a served sweep job pays around its
// predictions on the job grid: dse.Rank over the 16384 predicted results of
// 416.gamess at top 10 (rpserved's default) and top 1000 (its limit), and
// Space.Enumerate materializing the grid's points (which only fleet-served
// sweeps still pay). The job sub-benchmark is a served RpStacks job's whole
// sweep path: dse.ExploreSpace on GOMAXPROCS workers plus Rank at top 10.
func BenchmarkRankJobGrid(b *testing.B) {
	r := benchRunner()
	sp := jobGridSpace(b)
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	rep, err := dse.Explore(dse.RpStacksEngine(a.Analysis), sp.Enumerate(r.Cfg.Lat), dse.ExploreOptions{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, top := range []int{10, 1000} {
		b.Run(fmt.Sprintf("rank/top%d", top), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rankSink, _ = dse.Rank(rep.Results, top, math.Inf(1))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rep.Results)), "ns/point")
		})
	}
	b.Run("enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointsSink = sp.Enumerate(r.Cfg.Lat)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sp.Size()), "ns/point")
	})
	b.Run("job", func(b *testing.B) {
		e := dse.RpStacksEngine(a.Analysis)
		opts := dse.ExploreOptions{Parallelism: runtime.GOMAXPROCS(0)}
		for i := 0; i < b.N; i++ {
			rep, err := dse.ExploreSpace(e, sp, r.Cfg.Lat, opts)
			if err != nil {
				b.Fatal(err)
			}
			rankSink, _ = dse.Rank(rep.Results, 10, math.Inf(1))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sp.Size()), "ns/point")
	})
}

// BenchmarkSearchRpStacksJobGrid runs a guided Pareto search over the job
// grid on one worker. Its rounds are 8-lane batches of probes spread over
// the surviving boxes, wider than a sweep's consecutive grid points.
func BenchmarkSearchRpStacksJobGrid(b *testing.B) {
	r := benchRunner()
	sp := jobGridSpace(b)
	for _, app := range []string{"416.gamess", "433.milc"} {
		b.Run(app, func(b *testing.B) {
			a, err := r.App(app)
			if err != nil {
				b.Fatal(err)
			}
			e := dse.RpStacksEngine(a.Analysis)
			opts := dse.SearchOptions{ExploreOptions: dse.ExploreOptions{Parallelism: 1}}
			var probes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := dse.Search(e, r.Cfg.Lat, sp, &dse.SearchSpec{Mode: dse.SearchPareto}, opts)
				if err != nil {
					b.Fatal(err)
				}
				probes += res.Probes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
			b.ReportMetric(float64(probes)/float64(b.N), "probes")
		})
	}
}

// BenchmarkSimilarity measures the modified cosine similarity kernel
// (Figure 9).
func BenchmarkSimilarity(b *testing.B) {
	cfg := config.Baseline()
	var x, y stacks.Stack
	x.Add(stacks.L1D, 120)
	x.Add(stacks.FpAdd, 40)
	x.Add(stacks.Base, 300)
	y.Add(stacks.L1D, 100)
	y.Add(stacks.FpMul, 25)
	y.Add(stacks.Base, 290)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += stacks.Similarity(&x, &y, &cfg.Lat)
	}
	_ = sink
}

// --- Figures ------------------------------------------------------------

// BenchmarkFig2aSimulationSpeed reports the measured host speeds behind
// Figure 2a.
func BenchmarkFig2aSimulationSpeed(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig2("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		measured := 0
		for _, row := range f.Rows {
			if !row.Measured {
				continue
			}
			// Metric units must be single tokens: the first measured row
			// is the plain simulator, the second is RpStacks end to end.
			unit := "sim-MIPS"
			if measured > 0 {
				unit = "rpstacks-MIPS"
			}
			b.ReportMetric(row.MIPS, unit)
			measured++
		}
	}
}

// BenchmarkFig2bExplorationScaling reports the exploration-time speedup at
// 100 and 1000 design points.
func BenchmarkFig2bExplorationScaling(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig2("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig2Speedup(f, 100), "speedup@100")
		b.ReportMetric(fig2Speedup(f, 1000), "speedup@1000")
	}
}

// fig2Speedup is simulation over RpStacks exploration time at n design
// points.
func fig2Speedup(f *experiments.Fig2Result, n int) float64 {
	rp := f.Setup + time.Duration(n)*f.RpPerPoint
	if rp <= 0 {
		return 0
	}
	return float64(time.Duration(n)*f.SimPerPoint) / float64(rp)
}

// BenchmarkFig5PathStacks regenerates the path-stack panel and reports how
// few representative stacks survive reduction.
func BenchmarkFig5PathStacks(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig5("416.gamess")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.TotalStacks), "stacks")
	}
}

func benchFig6(b *testing.B, app string) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6(app)
		if err != nil {
			b.Fatal(err)
		}
		var rpWorst, cpWorst, fmWorst float64
		for j := range f.Scenarios {
			rp, cp, fm := f.Scenarios[j].Err()
			rpWorst = max(rpWorst, rp)
			cpWorst = max(cpWorst, cp)
			fmWorst = max(fmWorst, fm)
		}
		b.ReportMetric(float64(f.Space), "points")
		b.ReportMetric(rpWorst, "rp-maxerr%")
		b.ReportMetric(cpWorst, "cp1-maxerr%")
		b.ReportMetric(fmWorst, "fmt-maxerr%")
	}
}

// BenchmarkFig6aGamessExploration regenerates the 416.gamess scenario.
func BenchmarkFig6aGamessExploration(b *testing.B) { benchFig6(b, "416.gamess") }

// BenchmarkFig6bLeslie3dExploration regenerates the 437.leslie3d scenario.
func BenchmarkFig6bLeslie3dExploration(b *testing.B) { benchFig6(b, "437.leslie3d") }

// BenchmarkFig6cExplorationCoverage reports coverage within a 400-simulation
// budget.
func BenchmarkFig6cExplorationCoverage(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6c("416.gamess", 400)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.Rows[len(f.Rows)-1].Points), "rp-points")
	}
}

// BenchmarkFig10GraphModelAccuracy reports the graph-vs-simulator error
// distribution across the suite.
func BenchmarkFig10GraphModelAccuracy(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig10(nil)
		if err != nil {
			b.Fatal(err)
		}
		var med, worst float64
		for _, row := range f.Rows {
			med += row.Summary.Median
			worst = max(worst, row.Summary.Max)
		}
		b.ReportMetric(med/float64(len(f.Rows)), "median-err%")
		b.ReportMetric(worst, "max-err%")
	}
}

func benchFig11(b *testing.B, label string, scale float64) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig11(label, scale)
		if err != nil {
			b.Fatal(err)
		}
		rp, cp, fm := f.Means()
		b.ReportMetric(rp, "rp-err%")
		b.ReportMetric(cp, "cp1-err%")
		b.ReportMetric(fm, "fmt-err%")
	}
}

// BenchmarkFig11aHalfLatency regenerates Figure 11a (latencies halved).
func BenchmarkFig11aHalfLatency(b *testing.B) { benchFig11(b, "a", 0.5) }

// BenchmarkFig11bAggressive regenerates Figure 11b (latencies to 10~25%).
func BenchmarkFig11bAggressive(b *testing.B) { benchFig11(b, "b", 0.15) }

// BenchmarkFig12BaselineCPIStacks regenerates the suite CPI stacks and
// reports the mean baseline CPI.
func BenchmarkFig12BaselineCPIStacks(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		var cpi float64
		for _, row := range f.Rows {
			cpi += row.CPI
		}
		b.ReportMetric(cpi/float64(len(f.Rows)), "mean-CPI")
	}
}

// BenchmarkFig13ExplorationOverhead reports the measured crossover point
// and the speedup at 1000 design points (the paper's 38-point crossover and
// 26x headline).
func BenchmarkFig13ExplorationOverhead(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig13([]string{"416.gamess", "429.mcf", "456.hmmer"})
		if err != nil {
			b.Fatal(err)
		}
		cross, speed := f.MeanCrossover()
		b.ReportMetric(cross, "crossover-points")
		b.ReportMetric(speed, "speedup@1000")
	}
}

// BenchmarkFig14ParameterSensitivity sweeps a reduced parameter grid and
// reports the accuracy cost of disabling uniqueness preservation.
func BenchmarkFig14ParameterSensitivity(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		f, err := r.Fig14([]string{"416.gamess", "437.leslie3d"},
			[]int{1000, 5000}, []float64{0.7})
		if err != nil {
			b.Fatal(err)
		}
		var on, off float64
		for _, p := range f.Points {
			if p.SegmentLength != 5000 || p.Threshold != 0.7 {
				continue
			}
			if p.Unique {
				on = p.MaxErr
			} else {
				off = p.MaxErr
			}
		}
		b.ReportMetric(on, "maxerr-unique-on%")
		b.ReportMetric(off, "maxerr-unique-off%")
	}
}

// BenchmarkExploreRpStacks1000 sweeps ~1000 latency points through a
// prebuilt analysis, the inner loop of the paper's headline claim.
func BenchmarkExploreRpStacks1000(b *testing.B) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 9, 12, 15, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 3, 4, 5, 6}},
		{Event: stacks.FpMul, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 100, 133}},
	}}
	points := sp.Enumerate(r.Cfg.Lat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)), "points")
}

// --- rpserved durable-tier hit ------------------------------------------

// BenchmarkDiskHitDecode measures, step by step, what a durable-tier hit
// costs rpserved for 403.gcc at 10k µops: decode the stored trace,
// recompute the trace digest and decode the stored analysis. The
// regenerate step (the workload's µop stream: 3x warmup plus the measured
// region) is paid only by a sim job on the entry, and by the first disk hit
// on a recipe the process has not generated yet, which learns the region's
// record count from it. No step builds the dependence graph; only graph
// jobs do.
func BenchmarkDiskHitDecode(b *testing.B) {
	const n = 10000
	prof, _ := workload.ByName("403.gcc")
	cfg := config.Baseline()
	region := func() (*workload.Generator, []isa.MicroOp, []isa.MicroOp) {
		gen := workload.NewGenerator(prof, 0)
		warm, uops := gen.MeasuredRegion(workload.DefaultWarmup(n), n)
		return gen, warm, uops
	}
	gen, warm, uops := region()
	sim, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(warm)
	tr, err := sim.Run(uops)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var traceBlob, analysisBlob bytes.Buffer
	if err := trace.Write(&traceBlob, tr); err != nil {
		b.Fatal(err)
	}
	if err := core.WriteAnalysis(&analysisBlob, a); err != nil {
		b.Fatal(err)
	}

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(traceBlob.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("regenerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			region()
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trace.Digest(tr)
		}
	})
	b.Run("read-analysis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ReadAnalysis(bytes.NewReader(analysisBlob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Serial / parallel / batched sweep triplets --------------------------
//
// Each triplet runs the identical sweep three ways: serially at one lane
// (BatchSize 1: one model pass per design point through the batch kernels),
// sharded over GOMAXPROCS one-lane workers, and batched at the default width
// (K design points per model pass, serial and sharded). On a multicore host
// the parallel member's ns/op should beat its serial sibling roughly by the
// worker count, and the batched members beat their one-lane siblings at
// equal worker count by amortizing model traffic across lanes
// (compare with `go test -bench='ExploreGraph(Serial|Parallel|Batched)'
// -benchmem`). All members produce bit-identical Results — the triplets
// measure execution strategy only. The graph members also demonstrate the
// evaluator reuse: allocations stay O(workers) per sweep instead of one
// O(nodes) distance buffer per design point.

// benchSweepSpace is the point list the sweep pairs walk.
func benchSweepSpace(base stacks.Latencies) []stacks.Latencies {
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 12, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}
	return sp.Enumerate(base)
}

func benchExploreGraph(b *testing.B, workers, batch int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	points := benchSweepSpace(r.Cfg.Lat)
	opts := dse.ExploreOptions{Parallelism: workers, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	var width int
	for i := 0; i < b.N; i++ {
		rep, err := dse.Explore(dse.GraphEngine(a.Graph), points, opts)
		if err != nil {
			b.Fatal(err)
		}
		width = rep.Batch
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(width), "lanes")
}

// BenchmarkJournalPersist measures what the job journal costs rpserved per
// finished job on a real store: one flight record (queued, running, four
// progress events, done) written into its ring slot, the store's one
// framed object write and fsync included. The sub-benchmarks differ only
// in how many jobs finished before timing starts, Capacity or 4×Capacity:
// with the store bounded by the ring, their per-job cost must match.
func BenchmarkJournalPersist(b *testing.B) {
	const capacity = 512
	for _, prior := range []int{capacity, 4 * capacity} {
		b.Run(fmt.Sprintf("history=%d", prior), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			j := journal.New(journal.Options{Store: st, Capacity: capacity, ProgressInterval: -1})
			job := func(i int) {
				id := fmt.Sprintf("job-%06d", i)
				j.JobQueued(id, journal.Record{Engine: "rpstacks", Workload: "429.mcf", GridPoints: 16})
				j.JobRunning(id)
				for c := 0; c < 4; c++ {
					j.ObserveSpan(id, obs.Record{Cat: obs.CatDSE, Name: obs.NameChunk, Arg: 4})
				}
				j.JobFinished(id, journal.Finish{Status: "done", TraceDigest: "0123456789abcdef"})
			}
			for i := 0; i < prior; i++ {
				job(i)
			}
			before := j.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job(prior + i)
			}
			b.StopTimer()
			after := j.Stats()
			if writes := after.Writes - before.Writes; writes != uint64(b.N) || after.PersistErrors != 0 {
				b.Fatalf("%d jobs made %d writes, %d failed", b.N, writes, after.PersistErrors)
			}
			b.ReportMetric(float64(after.WriteTime-before.WriteTime)/float64(b.N)/1e6, "write-ms/op")
			b.ReportMetric(float64(st.Len()), "entries")
		})
	}
}

// BenchmarkExploreGraphSerial is the one-worker one-lane graph-reconstruction
// sweep (BatchSize 1: one pass over the graph per design point).
func BenchmarkExploreGraphSerial(b *testing.B) { benchExploreGraph(b, 1, 1) }

// BenchmarkExploreGraphParallel is the same one-lane sweep sharded over
// GOMAXPROCS workers, one reusable evaluator each.
func BenchmarkExploreGraphParallel(b *testing.B) {
	benchExploreGraph(b, runtime.GOMAXPROCS(0), 1)
}

// BenchmarkExploreGraphBatched is the one-worker batched sweep: K design
// points per pass over the graph (the default width). Its speedup over
// BenchmarkExploreGraphSerial is the per-worker gain of lane batching.
func BenchmarkExploreGraphBatched(b *testing.B) { benchExploreGraph(b, 1, 0) }

// BenchmarkExploreGraphBatchedParallel stacks both axes: GOMAXPROCS workers,
// each evaluating K lanes per graph pass.
func BenchmarkExploreGraphBatchedParallel(b *testing.B) {
	benchExploreGraph(b, runtime.GOMAXPROCS(0), 0)
}

func benchExploreRpStacksSweep(b *testing.B, workers, batch int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	points := benchSweepSpace(r.Cfg.Lat)
	opts := dse.ExploreOptions{Parallelism: workers, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	var width int
	for i := 0; i < b.N; i++ {
		rep, err := dse.Explore(dse.RpStacksEngine(a.Analysis), points, opts)
		if err != nil {
			b.Fatal(err)
		}
		width = rep.Batch
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(width), "lanes")
}

// BenchmarkExploreRpStacksSerial is the one-worker one-lane RpStacks sweep.
func BenchmarkExploreRpStacksSerial(b *testing.B) { benchExploreRpStacksSweep(b, 1, 1) }

// BenchmarkExploreRpStacksParallel shards the one-lane RpStacks sweep over
// GOMAXPROCS workers sharing the read-only analysis.
func BenchmarkExploreRpStacksParallel(b *testing.B) {
	benchExploreRpStacksSweep(b, runtime.GOMAXPROCS(0), 1)
}

// BenchmarkExploreRpStacksBatched is the one-worker batched RpStacks sweep:
// the representative stacks are re-weighted for K design points per pass.
func BenchmarkExploreRpStacksBatched(b *testing.B) { benchExploreRpStacksSweep(b, 1, 0) }

// BenchmarkExploreRpStacksBatchedParallel stacks both axes for the RpStacks
// engine.
func BenchmarkExploreRpStacksBatchedParallel(b *testing.B) {
	benchExploreRpStacksSweep(b, runtime.GOMAXPROCS(0), 0)
}

// --- Fleet: coordinator/worker chunk leasing --------------------------

// benchFleetGraph runs the fig13-style graph sweep through an in-process
// fleet: one coordinator behind httptest, nworkers workers (one evaluator
// goroutine each, so scaling comes from the fleet, not intra-worker
// parallelism) publishing chunk blobs into a shared store root. The first
// sweep is run untimed to pay each worker's one-time workload rebuild, the
// same cost rpworker amortizes across a process lifetime.
//
// On a multi-core host the two-worker wall-clock approaches half the
// one-worker number (chunk evaluations run truly in parallel); on a
// single-core host the remaining gain comes from overlapping one worker's
// blob publication and lease round-trips with the other's evaluation.
func benchFleetGraph(b *testing.B, nworkers int) {
	r := benchRunner()
	a, err := r.App("416.gamess")
	if err != nil {
		b.Fatal(err)
	}
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 12, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}
	points := sp.Enumerate(r.Cfg.Lat)
	fp, err := dse.GraphEngine(a.Graph).Fingerprint(points)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := store.OpenShared(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: time.Minute,
		WaitHint: time.Millisecond,
	})
	ts := httptest.NewServer(coord)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nworkers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			CoordinatorURL: ts.URL,
			Shared:         shared,
			Concurrency:    1,
			ID:             fmt.Sprintf("bench-w%d", i),
			PollInterval:   time.Millisecond,
		})
		go func() { _ = w.Run(ctx) }()
	}
	sw := fleet.Sweep{
		Spec: fleet.SweepSpec{
			Workload: "416.gamess",
			Seed:     42,
			MicroOps: benchMicroOps,
			Engine:   "graph",
			Axes:     fleet.FormatAxes(sp.Axes),
		},
		Points:      points,
		Fingerprint: fp,
		ChunkSize:   9, // 72 points -> 8 chunks
	}
	if _, err := coord.Run(ctx, sw); err != nil { // untimed worker warmup
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Run(ctx, sw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(float64(nworkers), "fleet_workers")
}

// BenchmarkFleetGraphWorkers1 is the single-worker fleet baseline: all lease
// and blob-publication overhead, no parallelism.
func BenchmarkFleetGraphWorkers1(b *testing.B) { benchFleetGraph(b, 1) }

// BenchmarkFleetGraphWorkers2 doubles the fleet; its wall-clock speedup over
// BenchmarkFleetGraphWorkers1 is the fleet's scaling on one host.
func BenchmarkFleetGraphWorkers2(b *testing.B) { benchFleetGraph(b, 2) }
