// Execution-parameter sensitivity (the paper's Figure 14, in miniature):
// sweep the segment length and cosine threshold, toggle uniqueness
// preservation, and watch accuracy and stack counts move. Uniqueness
// preservation is first-order for accuracy; the threshold is second-order.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stacks"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	prof, _ := workload.ByName("437.leslie3d")
	gen := workload.NewGenerator(prof, 42)
	warm, uops := gen.MeasuredRegion(60000, 20000)
	cfg := config.Baseline()

	runSim := func(l stacks.Latencies) float64 {
		c := cfg.Clone()
		c.Lat = l
		tr, err := cpu.RunWarmed(c, gen.CodeLines(), gen.DataLines(), warm, uops)
		if err != nil {
			log.Fatal(err)
		}
		return float64(tr.Cycles)
	}

	// Baseline trace + the ground truths of three optimization scenarios.
	tr, err := cpu.RunWarmed(cfg, gen.CodeLines(), gen.DataLines(), warm, uops)
	if err != nil {
		log.Fatal(err)
	}
	scenarios := []stacks.Latencies{
		cfg.Lat.Scale(stacks.MemD, 0.15),
		cfg.Lat.Scale(stacks.FpMul, 0.15),
		cfg.Lat.Scale(stacks.MemD, 0.15).Scale(stacks.FpMul, 0.15),
	}
	truths := make([]float64, len(scenarios))
	for i, l := range scenarios {
		truths[i] = runSim(l)
	}

	fmt.Println("unique  segment  cosine  avg-err%  max-err%  stacks  time")
	for _, uniq := range []bool{true, false} {
		for _, seg := range []int{500, 2000, 5000, 10000} {
			for _, cos := range []float64{0.5, 0.7, 0.9} {
				opts := core.DefaultOptions()
				opts.SegmentLength = seg
				opts.CosineThreshold = cos
				opts.PreserveUnique = uniq
				start := time.Now()
				a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
				if err != nil {
					log.Fatal(err)
				}
				var errs []float64
				for i := range scenarios {
					errs = append(errs, stats.AbsPctErr(a.Predict(&scenarios[i]), truths[i]))
				}
				fmt.Printf("%-6v  %-7d  %-6.1f  %-8.2f  %-8.2f  %-6d  %v\n",
					uniq, seg, cos, stats.Mean(errs), stats.Max(errs),
					a.NumStacks(), time.Since(start).Round(time.Millisecond))
			}
		}
	}
}
