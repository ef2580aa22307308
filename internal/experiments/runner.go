// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the motivating figures of Sections II and III,
// on top of the repository's simulator, dependence graph, RpStacks core and
// baselines. Each experiment is a function on a Runner; the Runner caches
// per-workload simulations, analyses and ground-truth re-simulations so that
// experiment suites and sensitivity sweeps share work.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Runner hosts shared state for experiment execution.
type Runner struct {
	// Cfg is the baseline design point (Table II unless overridden).
	Cfg *config.Config
	// MicroOps is the trace length per workload; the benchmarks use small
	// values, the CLI a larger default. workload.DefaultWarmup(MicroOps)
	// leading µops are streamed functionally through caches, TLBs and
	// predictors first, so that the trace reflects steady-state behaviour
	// rather than compulsory misses.
	MicroOps int
	// Seed feeds the deterministic workload generators.
	Seed int64
	// Opts are the RpStacks execution parameters.
	Opts core.Options
	// Parallelism is the sweep worker count the figure experiments hand to
	// the dse engines (1: serial). Sweep results are identical either way;
	// only the wall-clock changes.
	Parallelism int

	apps   map[string]*App
	truths map[string]float64
}

// NewRunner builds a Runner with the paper's defaults.
func NewRunner(microOps int) *Runner {
	return &Runner{
		Cfg:         config.Baseline(),
		MicroOps:    microOps,
		Seed:        42,
		Opts:        core.DefaultOptions(),
		Parallelism: runtime.GOMAXPROCS(0),
		apps:        make(map[string]*App),
		truths:      make(map[string]float64),
	}
}

// App is the fully-prepared state of one workload: its µop stream, baseline
// trace, RpStacks analysis, whole-trace dependence graph and the two
// baseline analyzers, plus the wall-clock costs of producing them.
type App struct {
	Name      string
	CodeLines []uint64
	DataLines []uint64
	WarmUOps  []isa.MicroOp
	UOps      []isa.MicroOp
	Trace     *trace.Trace
	Analysis  *core.Analysis
	Graph     *depgraph.Graph
	CP1       *baseline.CP1
	FMT       *baseline.FMT

	SimTime     time.Duration
	AnalyzeTime time.Duration
}

// App prepares (or returns the cached) state of the named workload.
func (r *Runner) App(name string) (*App, error) {
	if a, ok := r.apps[name]; ok {
		return a, nil
	}
	prof, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	gen := workload.NewGenerator(prof, r.Seed)
	warm, uops := gen.MeasuredRegion(workload.DefaultWarmup(r.MicroOps), r.MicroOps)
	return r.prepare(name, gen.CodeLines(), gen.DataLines(), warm, uops)
}

// prepare runs the full pipeline — warm, simulate, analyze, graph,
// baselines — over an explicit µop stream and caches the result under name.
func (r *Runner) prepare(name string, codeLines, dataLines []uint64, warm, uops []isa.MicroOp) (*App, error) {
	a := &App{Name: name}
	a.CodeLines = codeLines
	a.DataLines = dataLines
	a.WarmUOps = warm
	a.UOps = uops

	start := time.Now()
	var err error
	if a.Trace, err = cpu.RunWarmed(r.Cfg, codeLines, dataLines, warm, a.UOps); err != nil {
		return nil, fmt.Errorf("experiments: simulating %s: %w", name, err)
	}
	a.SimTime = time.Since(start)

	start = time.Now()
	if a.Analysis, err = core.Analyze(a.Trace, &r.Cfg.Structure, &r.Cfg.Lat, r.Opts); err != nil {
		return nil, fmt.Errorf("experiments: analyzing %s: %w", name, err)
	}
	a.AnalyzeTime = time.Since(start)

	if a.Graph, err = depgraph.Build(a.Trace, &r.Cfg.Structure, 0, len(a.Trace.Records)); err != nil {
		return nil, err
	}
	if a.CP1, err = baseline.NewCP1(a.Trace, &r.Cfg.Structure, &r.Cfg.Lat); err != nil {
		return nil, err
	}
	a.FMT = baseline.NewFMT(a.Trace, &r.Cfg.Lat)
	r.apps[name] = a
	return a, nil
}

// Truth re-simulates the workload under the given latency assignment and
// returns the measured cycle count — the ground truth every prediction is
// scored against. Results are cached per (workload, assignment).
func (r *Runner) Truth(a *App, l *stacks.Latencies) (float64, error) {
	key := fmt.Sprintf("%s|%v", a.Name, *l)
	if c, ok := r.truths[key]; ok {
		return c, nil
	}
	cfg := r.Cfg.Clone()
	cfg.Lat = *l
	tr, err := cpu.RunWarmed(cfg, a.CodeLines, a.DataLines, a.WarmUOps, a.UOps)
	if err != nil {
		return 0, fmt.Errorf("experiments: re-simulating %s: %w", a.Name, err)
	}
	c := float64(tr.Cycles)
	r.truths[key] = c
	return c, nil
}

// Bottlenecks returns the workload's top optimizable stall events by their
// share of the baseline RpStacks CPI stack (the paper identifies scenario
// targets this way, Figure 12).
func (a *App) Bottlenecks(base *stacks.Latencies, k int) []stacks.Event {
	rep := a.Analysis.Representative(base)
	pen := rep.Penalties(base)
	type ev struct {
		e stacks.Event
		c float64
	}
	var evs []ev
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if !e.Optimizable() || pen[e] == 0 {
			continue
		}
		evs = append(evs, ev{e, pen[e]})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].c > evs[j].c })
	if k > len(evs) {
		k = len(evs)
	}
	out := make([]stacks.Event, k)
	for i := 0; i < k; i++ {
		out[i] = evs[i].e
	}
	return out
}

// Suite lists the workloads experiments run over, in benchmark-number order.
func Suite() []string { return workload.Names() }
