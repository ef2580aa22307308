package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dse"
	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceSeed is the generator seed of every simulated program: the default
// of rpexplore, the experiments and the figure goldens. Traces stay fixed
// because analysis cost is extremely input-sensitive — across generator
// seeds, and even across shifted windows of one program, 416.gamess at 10k
// µops measured 0.33–1.94 s and 250–494 MB — so a seeded trace would make
// setup_s, alloc_mb and pred_err_pct measure the seed, not the code. The
// run seed drives everything else a workload consumes (see README.md).
const traceSeed = 42

// topN is the ranked result count of every job, as rpserved's default.
const topN = 10

// scale sizes a workload's inputs; the self-test shrinks them.
type scale struct {
	coldUOps, graphUOps, serviceUOps int
	// sweepAxes is the Fig 13-sized grid of analyze-cold's sweep and
	// graph-sweep's repeated sweep (960 points at full scale).
	sweepAxes []string
	// jobAxes is the RpStacks job grid (16384 points at full scale).
	jobAxes []string
	// graphJobAxes is graph-sweep's job grid (16 points at full scale).
	graphJobAxes []string
	// minClass is the least number of jobs per class: p90 needs ten
	// samples beyond it.
	minClass int
	// minReps is the least number of repeats of each timed operation.
	minReps int
	// auditPoints is the oracle sample size per simulated program.
	auditPoints int
}

var fullScale = scale{
	coldUOps: 10000, graphUOps: 20000, serviceUOps: 10000,
	sweepAxes: []string{"L1D=1,2,3,4", "L2D=6,9,12,15,18", "FpAdd=2,4,6,8", "FpMul=2,4,6,8", "MemD=66,100,133"},
	jobAxes: []string{"L1D=1,2,3,4,5,6,7,8", "L2D=6,8,10,12,14,16,18,20",
		"FpAdd=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", "FpMul=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"},
	graphJobAxes: []string{"L1D=1,4", "L2D=6,18", "FpAdd=2,8", "MemD=66,133"},
	minClass:     110,
	minReps:      2,
	auditPoints:  12,
}

// subject is one simulated program: the generated µop stream split as
// rpexplore and rpserved split it (3× functional warmup, snapped to a
// macro-op boundary) plus the cache contents the simulator is warmed with.
type subject struct {
	app                  string
	codeLines, dataLines []uint64
	warm, uops           []isa.MicroOp
}

func newSubject(app string, n int) (*subject, error) {
	prof, ok := workload.ByName(app)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", app)
	}
	gen := workload.NewGenerator(prof, traceSeed)
	stream := gen.Take(4 * n)
	cut := 3 * n
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	return &subject{app: app, codeLines: gen.CodeLines(), dataLines: gen.DataLines(),
		warm: stream[:cut], uops: stream[cut:]}, nil
}

// simulate warms a fresh simulator and traces the measured region.
func (s *subject) simulate(cfg *config.Config) (*trace.Trace, error) {
	sim, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.WarmCode(s.codeLines)
	sim.WarmData(s.dataLines)
	sim.WarmUp(s.warm)
	return sim.Run(s.uops)
}

// oracle is the ground truth pred_err_pct scores against: re-simulation
// with the same warmup.
func (s *subject) oracle(cfg *config.Config) audit.Oracle {
	return &audit.SimOracle{Cfg: cfg, CodeLines: s.codeLines, DataLines: s.dataLines, Warm: s.warm, UOps: s.uops}
}

// grid parses axis specs into the design points they enumerate.
func grid(cfg *config.Config, specs []string) ([]stacks.Latencies, error) {
	var sp dse.Space
	for _, s := range specs {
		ax, err := dse.ParseAxisSpec(s)
		if err != nil {
			return nil, err
		}
		sp.Axes = append(sp.Axes, ax)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp.Enumerate(cfg.Lat), nil
}

// shuffleAxes reorders the values of every axis spec with rng. The grid
// holds the same points, enumerated in another order: batches group other
// points and ranking ties break differently, so the seed varies the sweep
// without varying its cost.
func shuffleAxes(rng *rand.Rand, specs []string) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		ev, vals, _ := strings.Cut(s, "=")
		vs := strings.Split(vals, ",")
		rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		out[i] = ev + "=" + strings.Join(vs, ",")
	}
	return out
}

// ranked returns the indices of the top best results: ascending cycles,
// point index breaking ties, as rpserved ranks a job.
func ranked(results []dse.Result, top int) []int {
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return results[idx[a]].Cycles < results[idx[b]].Cycles })
	return idx[:min(top, len(idx))]
}

// answer is a job's ranked top results: point indices and cycles.
type answer struct {
	idx    []int
	cycles []float64
}

func answerOf(results []dse.Result) answer {
	idx := ranked(results, topN)
	a := answer{idx: idx, cycles: make([]float64, len(idx))}
	for k, i := range idx {
		a.cycles[k] = results[i].Cycles
	}
	return a
}

func (a answer) equal(b answer) bool {
	if len(a.idx) != len(b.idx) {
		return false
	}
	for k := range a.idx {
		if a.idx[k] != b.idx[k] || a.cycles[k] != b.cycles[k] {
			return false
		}
	}
	return true
}

// sweepOpts are rpexplore's sweep defaults: GOMAXPROCS workers, automatic
// chunks, autotuned batch width.
func sweepOpts() dse.ExploreOptions {
	return dse.ExploreOptions{Parallelism: runtime.GOMAXPROCS(0)}
}

// encodeTrace and encodeAnalysis produce the durable blobs rpserved
// publishes for a trace and its analysis.
func encodeTrace(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	err := trace.Write(&buf, tr)
	return buf.Bytes(), err
}

func encodeAnalysis(a *core.Analysis) ([]byte, error) {
	var buf bytes.Buffer
	err := core.WriteAnalysis(&buf, a)
	return buf.Bytes(), err
}
