// Quickstart: the full RpStacks pipeline on one workload in ~40 lines of
// API use — simulate once, analyze once, then predict any latency design
// point for free and validate one of them against re-simulation.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/workload"
)

func main() {
	// 1. A deterministic SPEC-like workload and the Table II baseline core.
	prof, ok := workload.ByName("416.gamess")
	if !ok {
		log.Fatal("unknown workload")
	}
	gen := workload.NewGenerator(prof, 42)
	// 60k µops of functional cache/predictor warmup, then the measured 30k.
	warm, uops := gen.MeasuredRegion(60000, 30000)
	cfg := config.Baseline()

	// 2. One timing simulation produces the dynamic trace.
	tr, err := cpu.RunWarmed(cfg, gen.CodeLines(), gen.DataLines(), warm, uops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d µops in %d cycles (CPI %.3f)\n",
		tr.MicroOps(), tr.Cycles, tr.CPI())

	// 3. One RpStacks analysis extracts the representative stall-event
	//    stacks of the distinctive execution paths.
	analysis, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kept %d representative stacks across %d segments\n",
		analysis.NumStacks(), len(analysis.Segments))
	rep := analysis.Representative(&cfg.Lat)
	fmt.Printf("baseline decomposition: %s\n\n", rep.Format(&cfg.Lat))

	// 4. Predict any latency configuration without another simulation.
	for _, mod := range []struct {
		name string
		lat  stacks.Latencies
	}{
		{"L1D 4->2", cfg.Lat.With(stacks.L1D, 2)},
		{"FpAdd 6->3", cfg.Lat.With(stacks.FpAdd, 3)},
		{"both", cfg.Lat.With(stacks.L1D, 2).With(stacks.FpAdd, 3)},
	} {
		lat := mod.lat
		cpi := analysis.PredictCPI(&lat)
		fmt.Printf("predicted CPI with %-11s %.3f\n", mod.name+":", cpi)
	}

	// 5. Validate the last prediction against a real re-simulation.
	opt := cfg.Clone()
	opt.Lat = cfg.Lat.With(stacks.L1D, 2).With(stacks.FpAdd, 3)
	tr2, err := cpu.RunWarmed(opt, gen.CodeLines(), gen.DataLines(), warm, uops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nre-simulated CPI with both:  %.3f (prediction error %.2f%%)\n",
		tr2.CPI(), 100*abs(analysis.PredictCPI(&opt.Lat)-tr2.CPI())/tr2.CPI())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
