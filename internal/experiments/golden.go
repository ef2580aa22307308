package experiments

// golden.go — deterministic "golden views" of the figure experiments.
//
// Each Fig* result mixes deterministic model outputs (cycle counts, CPIs,
// stack decompositions, design-space sizes) with host wall-clock timings
// (per-point costs, sweep speedups, crossover points). The views below quote
// only the former, so they are bit-stable across hosts and runs: the
// simulator is deterministic for a (workload, seed, µop budget, config)
// tuple, and every derived number here is pure arithmetic on its outputs.
// golden_test.go pins these views as committed files under testdata/.
//
// Long prediction series are summarized as a SHA-256 digest over the
// little-endian float64 bits of every point's cycle count (in point order)
// plus a short explicit prefix, so a golden stays reviewable while still
// covering the full series.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dse"
	"repro/internal/stacks"
)

// resultsDigest hashes a sweep's predicted cycle series.
func resultsDigest(results []dse.Result) string {
	h := sha256.New()
	var b [8]byte
	for i := range results {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(results[i].Cycles))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// resultsPrefix returns the first n cycle counts of a sweep.
func resultsPrefix(results []dse.Result, n int) []float64 {
	if n > len(results) {
		n = len(results)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = results[i].Cycles
	}
	return out
}

// stackCounts renders a stack as event-name → cycle-event count, dropping
// zero entries so goldens only list the events the workload actually hit.
func stackCounts(s *stacks.Stack) map[string]float64 {
	out := map[string]float64{}
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if c := s.Counts[e]; c != 0 {
			out[e.String()] = c
		}
	}
	return out
}

// latPoint renders a latency assignment as event-name → cycles for the
// events that differ from the baseline (the knobs a scenario turned).
func latPoint(base, l *stacks.Latencies) map[string]float64 {
	out := map[string]float64{}
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if l[e] != base[e] {
			out[e.String()] = l[e]
		}
	}
	return out
}

// QuotedSpeed is one literature-quoted simulation speed from Figure 2a.
type QuotedSpeed struct {
	Method string
	MIPS   float64
}

// Fig2bGolden is the deterministic substrate of Figure 2: the quoted
// literature speeds of panel (a), the design-point series of panel (b), and
// the full RpStacks prediction sweep over the panel's latency grid. The
// host-measured MIPS rows and all wall-clock timings are deliberately
// excluded.
type Fig2bGolden struct {
	App            string
	MicroOps       int
	BaselineCycles float64
	BaselineCPI    float64
	QuotedSpeeds   []QuotedSpeed
	PointSeries    []int
	GridPoints     int
	PredSHA256     string
	PredPrefix     []float64
}

// Fig2bGoldenView computes the deterministic view of Figure 2 for one
// workload.
func (r *Runner) Fig2bGoldenView(name string) (*Fig2bGolden, error) {
	f2, err := r.Fig2(name)
	if err != nil {
		return nil, err
	}
	a, err := r.App(name)
	if err != nil {
		return nil, err
	}
	g := &Fig2bGolden{
		App:            name,
		MicroOps:       len(a.UOps),
		BaselineCycles: float64(a.Trace.Cycles),
		BaselineCPI:    a.Trace.CPI(),
		PointSeries:    f2.Points,
	}
	for _, row := range f2.Rows {
		if !row.Measured {
			g.QuotedSpeeds = append(g.QuotedSpeeds, QuotedSpeed{Method: row.Method, MIPS: row.MIPS})
		}
	}
	points := fig13Space(r.Cfg.Lat)
	g.GridPoints = len(points)
	rep, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{})
	g.PredSHA256 = resultsDigest(rep.Results)
	g.PredPrefix = resultsPrefix(rep.Results, 8)
	return g, nil
}

// Fig6ScenarioGolden is one validation scenario's deterministic columns.
type Fig6ScenarioGolden struct {
	Name     string
	Knobs    map[string]float64 // latencies changed from the baseline
	TruthCPI float64
	RpCPI    float64
	Cp1CPI   float64
	FmtCPI   float64
}

// Fig6Golden is the deterministic substrate of Figure 6a/6b: the exploration
// space size, the target-CPI census, every validation scenario's four CPIs,
// and the three methods' baseline stack decompositions. Sweep timings and
// parallel speedups are excluded.
type Fig6Golden struct {
	App        string
	Space      int
	TargetCPI  float64
	MeetTarget int
	Scenarios  []Fig6ScenarioGolden
	RpStack    map[string]float64
	CP1Stack   map[string]float64
	FMTStack   map[string]float64
}

// Fig6GoldenView computes the deterministic view of Figure 6 for one
// workload.
func (r *Runner) Fig6GoldenView(name string) (*Fig6Golden, error) {
	f6, err := r.Fig6(name)
	if err != nil {
		return nil, err
	}
	g := &Fig6Golden{
		App:        f6.App,
		Space:      f6.Space,
		TargetCPI:  f6.TargetCPI,
		MeetTarget: f6.MeetTarget,
		RpStack:    stackCounts(&f6.Stacks.RpStacks),
		CP1Stack:   stackCounts(&f6.Stacks.CP1),
		FMTStack:   stackCounts(&f6.Stacks.FMT),
	}
	base := r.Cfg.Lat
	for i := range f6.Scenarios {
		s := &f6.Scenarios[i]
		g.Scenarios = append(g.Scenarios, Fig6ScenarioGolden{
			Name:     s.Name,
			Knobs:    latPoint(&base, &s.Lat),
			TruthCPI: s.TruthCPI,
			RpCPI:    s.RpCPI,
			Cp1CPI:   s.Cp1CPI,
			FmtCPI:   s.FmtCPI,
		})
	}
	return g, nil
}

// Fig13AppGolden is one workload's deterministic exploration substrate.
type Fig13AppGolden struct {
	App            string
	MicroOps       int
	BaselineCycles float64
	BaselineCPI    float64
	// RpStacks prediction sweep over the full grid.
	RpPredSHA256 string
	RpPredPrefix []float64
	// Graph-reconstruction cycle counts over the grid's first GraphPoints
	// points (the slice Fig13 times), quoted in full: the graph engine is
	// the figure's accuracy comparator, so its raw outputs are worth pinning.
	GraphPoints int
	GraphCycles []float64
}

// Fig13Golden is the deterministic substrate of Figure 13. The figure's own
// headline numbers (crossover point, speedup at 1000 points) are wall-clock
// ratios and therefore excluded; what is pinned is everything those ratios
// are computed over — the grid and both prediction engines' outputs on it.
type Fig13Golden struct {
	GridPoints int
	Apps       []Fig13AppGolden
}

// Fig13GoldenView computes the deterministic view of Figure 13 for the named
// workloads.
func (r *Runner) Fig13GoldenView(names []string) (*Fig13Golden, error) {
	points := fig13Space(r.Cfg.Lat)
	g := &Fig13Golden{GridPoints: len(points)}
	gpts := points
	if len(gpts) > 32 {
		gpts = gpts[:32]
	}
	for _, name := range names {
		a, err := r.App(name)
		if err != nil {
			return nil, err
		}
		rp, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{})
		gr, _ := dse.Explore(dse.GraphEngine(a.Graph), gpts, dse.ExploreOptions{})
		gc := make([]float64, len(gr.Results))
		for i := range gr.Results {
			gc[i] = gr.Results[i].Cycles
		}
		g.Apps = append(g.Apps, Fig13AppGolden{
			App:            name,
			MicroOps:       len(a.UOps),
			BaselineCycles: float64(a.Trace.Cycles),
			BaselineCPI:    a.Trace.CPI(),
			RpPredSHA256:   resultsDigest(rp.Results),
			RpPredPrefix:   resultsPrefix(rp.Results, 8),
			GraphPoints:    len(gpts),
			GraphCycles:    gc,
		})
	}
	return g, nil
}
