package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dse"
)

// Literature simulation speeds in MIPS used by the paper's Figure 2a ("we
// use the best-reported numbers from the literatures"). Native speed is a
// representative 2014-era core; the others are the published throughputs of
// the cited systems.
const (
	SpeedNativeMIPS   = 2000.0
	SpeedMARSSx86MIPS = 0.2  // Patel et al., cycle-accurate full-system
	SpeedGraphiteMIPS = 2.0  // Miller et al., parallel one-IPC
	SpeedSniperMIPS   = 2.2  // Carlson et al., parallel interval model
	SpeedFASTMIPS     = 10.0 // Chiou et al., FPGA-accelerated
)

// Fig2Row is one method's single-simulation speed.
type Fig2Row struct {
	Method   string
	MIPS     float64
	Measured bool // measured on this host rather than quoted
}

// Fig2Result reproduces Figure 2: (a) single-simulation speed per method,
// and (b) total exploration time versus the number of design points, where
// acceleration methods diverge and the single-simulation RpStacks flattens.
type Fig2Result struct {
	Rows []Fig2Row
	// Host-measured costs for the scaling series.
	SimPerPoint time.Duration
	Setup       time.Duration
	RpPerPoint  time.Duration
	Points      []int
	// Sharded-sweep measurement: wall-clock of the same prediction sweep
	// run serially and with SweepWorkers workers, and the resulting speedup.
	SweepWorkers int
	SerialSweep  time.Duration
	ParSweep     time.Duration
	ParSpeedup   float64
}

// Fig2 measures this host's simulator and RpStacks throughput on the given
// workload and combines them with the quoted literature speeds.
func (r *Runner) Fig2(name string) (*Fig2Result, error) {
	a, err := r.App(name)
	if err != nil {
		return nil, err
	}
	n := float64(len(a.UOps))
	simMIPS := n / a.SimTime.Seconds() / 1e6
	rpMIPS := n / (a.SimTime + a.AnalyzeTime).Seconds() / 1e6

	points := fig13Space(r.Cfg.Lat)
	// The per-point cost model is measured serially (Figure 2b plots the
	// single-core method cost); the sharded sweep is timed against it.
	serial, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{})
	perPred := serial.PerPoint
	par, _ := dse.Explore(dse.RpStacksEngine(a.Analysis), points, dse.ExploreOptions{Parallelism: r.Parallelism})
	speedup := 0.0
	if par.Wall > 0 {
		speedup = float64(serial.Wall) / float64(par.Wall)
	}

	return &Fig2Result{
		Rows: []Fig2Row{
			{Method: "native", MIPS: SpeedNativeMIPS},
			{Method: "MARSSx86 (quoted)", MIPS: SpeedMARSSx86MIPS},
			{Method: "Graphite (quoted)", MIPS: SpeedGraphiteMIPS},
			{Method: "Sniper (quoted)", MIPS: SpeedSniperMIPS},
			{Method: "FAST (quoted)", MIPS: SpeedFASTMIPS},
			{Method: "this simulator", MIPS: simMIPS, Measured: true},
			{Method: "RpStacks (collect+analyze)", MIPS: rpMIPS, Measured: true},
		},
		SimPerPoint:  a.SimTime,
		Setup:        a.SimTime + a.AnalyzeTime,
		RpPerPoint:   perPred,
		Points:       []int{1, 10, 100, 1000},
		SweepWorkers: len(par.Workers),
		SerialSweep:  serial.Wall,
		ParSweep:     par.Wall,
		ParSpeedup:   speedup,
	}, nil
}

// String renders both panels.
func (f *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2a: simulation speed (single simulation)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "method\tMIPS\tsource")
	for _, row := range f.Rows {
		src := "literature"
		if row.Measured {
			src = "measured"
		}
		fmt.Fprintf(w, "%s\t%.3f\t%s\n", row.Method, row.MIPS, src)
	}
	w.Flush()

	fmt.Fprintf(&b, "\nFigure 2b: total exploration time vs design points (this host)\n\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "points\tper-point simulation\tRpStacks (one sim + analysis)")
	for _, n := range f.Points {
		sim := time.Duration(n) * f.SimPerPoint
		rp := f.Setup + time.Duration(n)*f.RpPerPoint
		fmt.Fprintf(w, "%d\t%v\t%v\n", n, sim.Round(time.Millisecond), rp.Round(time.Millisecond))
	}
	w.Flush()
	fmt.Fprintf(&b, "\nsharded prediction sweep: serial %v, %d workers %v (%.2fx)\n",
		f.SerialSweep.Round(time.Microsecond), f.SweepWorkers,
		f.ParSweep.Round(time.Microsecond), f.ParSpeedup)
	return b.String()
}
