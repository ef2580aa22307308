package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dse"
	"repro/internal/stacks"
)

// Fig13Row is one workload's measured exploration costs.
type Fig13Row struct {
	App        string
	SimPoint   time.Duration // one re-simulation (one design point)
	Setup      time.Duration // RpStacks one-time cost: simulate + analyze
	RpPoint    time.Duration // one RpStacks prediction (serial)
	GraphPoint time.Duration // one graph-reconstruction longest path (serial)
	Crossover  int           // points beyond which RpStacks beats simulation
	Speedup1k  float64       // simulation time / RpStacks time at 1000 points
	Workers    int           // sweep workers of the sharded runs
	RpPar      float64       // sharded RpStacks sweep speedup vs serial
	GraphPar   float64       // sharded graph sweep speedup vs serial
}

// Fig13Result reproduces Figure 13 (and the headline 26x speedup claim):
// design space exploration cost versus the number of latency design points,
// for per-point simulation versus single-analysis RpStacks.
type Fig13Result struct {
	Rows   []Fig13Row
	Points []int
}

// fig13Space is a representative latency space used to time the per-point
// prediction loop.
func fig13Space(base stacks.Latencies) []stacks.Latencies {
	sp := dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.L2D, Values: []float64{6, 9, 12, 15, 18}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6, 8}},
		{Event: stacks.FpMul, Values: []float64{2, 4, 6, 8}},
		{Event: stacks.MemD, Values: []float64{66, 100, 133}},
	}}
	return sp.Enumerate(base)
}

// Fig13 measures exploration costs for the named workloads (nil for the
// whole suite).
func (r *Runner) Fig13(names []string) (*Fig13Result, error) {
	if names == nil {
		names = Suite()
	}
	res := &Fig13Result{Points: []int{1, 10, 38, 100, 1000}}
	points := fig13Space(r.Cfg.Lat)
	for _, name := range names {
		a, err := r.App(name)
		if err != nil {
			return nil, err
		}
		row := Fig13Row{App: name, SimPoint: a.SimTime}

		// The engines record their own setup cost (simulate + analyze for
		// RpStacks; the graph rides on the same simulation) in the Report,
		// so the crossover math below uses the reports directly.
		setup := dse.ExploreOptions{Setup: a.SimTime + a.AnalyzeTime}
		rp, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, setup)
		row.Setup = rp.Setup
		row.RpPoint = rp.PerPoint
		// Time the graph reconstruction on a slice of the space (it is two
		// to three orders slower per point than RpStacks).
		gpts := points
		if len(gpts) > 32 {
			gpts = gpts[:32]
		}
		gr, _ := dse.Explore(dse.GraphEngine(a.Graph), gpts, dse.ExploreOptions{})
		row.GraphPoint = gr.PerPoint

		// Sharded sweeps of the same point lists: identical Results, the
		// wall-clock divided across the runner's workers.
		par := dse.ExploreOptions{Parallelism: r.Parallelism}
		rpPar, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, par)
		grPar, _ := dse.Explore(dse.GraphEngine(a.Graph), gpts, par)
		row.Workers = len(rpPar.Workers)
		if rpPar.Wall > 0 {
			row.RpPar = float64(rp.Wall) / float64(rpPar.Wall)
		}
		if grPar.Wall > 0 {
			row.GraphPar = float64(gr.Wall) / float64(grPar.Wall)
		}

		simRep := &dse.Report{PerPoint: row.SimPoint}
		row.Crossover = dse.Crossover(rp, simRep, 1_000_000)
		if t := rp.Total(1000); t > 0 {
			row.Speedup1k = float64(simRep.Total(1000)) / float64(t)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MeanCrossover returns the average crossover point and the average speedup
// at 1000 design points across the measured workloads.
func (f *Fig13Result) MeanCrossover() (cross float64, speedup float64) {
	var cs, ss float64
	n := 0
	for _, row := range f.Rows {
		if row.Crossover < 0 {
			continue
		}
		cs += float64(row.Crossover)
		ss += row.Speedup1k
		n++
	}
	if n == 0 {
		return -1, 0
	}
	return cs / float64(n), ss / float64(n)
}

// String renders the measured cost model and the derived series.
func (f *Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: design space exploration overhead (latency domain)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "app\tsim/pt\tRp setup\tRp/pt\tgraph/pt\tcrossover\tspeedup@1000\tworkers\tRp-par\tgraph-par")
	for _, row := range f.Rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\t%d\t%.1fx\t%d\t%.2fx\t%.2fx\n",
			row.App, row.SimPoint.Round(time.Microsecond), row.Setup.Round(time.Microsecond),
			row.RpPoint, row.GraphPoint, row.Crossover, row.Speedup1k,
			row.Workers, row.RpPar, row.GraphPar)
	}
	w.Flush()
	cross, speed := f.MeanCrossover()
	fmt.Fprintf(&b, "\nmean crossover: %.0f design points; mean speedup at 1000 points: %.0fx\n", cross, speed)
	fmt.Fprintf(&b, "(paper: crossover ~38 points, 26x average speedup at 1000 points)\n")
	return b.String()
}
