package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stacks"
)

// search.go — the -search face of rpexplore: guided exploration that probes
// the design space lazily instead of materializing it, verifies every
// returned optimum through the -audit-oracle, and (with -search-selfcheck)
// proves the answer equals the exhaustive one on spaces small enough to
// materialize.

// searchFlags bundles the guided-search CLI options.
type searchFlags struct {
	spec      *dse.SearchSpec
	out       string
	selfcheck bool
}

// selfcheckLimit caps the grids -search-selfcheck will materialize; beyond
// it the flag is an error, since the whole point of a search is not to.
const selfcheckLimit = 1 << 20

// runSearch executes a guided search over the space, prints the result,
// and optionally writes it as JSON and differentially checks it against
// the exhaustive answer.
func runSearch(sp *dse.Space, sf searchFlags, r *experiments.Runner, a *experiments.App,
	app, method string, eng dse.Engine, par, batch int, checkpoint, traceOut string, au auditFlags) error {
	opts := dse.SearchOptions{
		ExploreOptions: dse.ExploreOptions{
			Parallelism: par,
			BatchSize:   batch,
			Setup:       a.SimTime + a.AnalyzeTime,
		},
		MicroOps: len(a.Trace.Records),
	}
	if traceOut != "" {
		// A search's span count is probe-driven and unknown up front; the
		// default flight-recorder ring keeps the most recent rounds, which is
		// what a timeline of a converging search wants anyway.
		opts.Tracer = obs.NewTracer(obs.DefaultCapacity)
	}
	if checkpoint != "" {
		// The probe-log analogue of the sweep checkpoint: each probe round
		// persists as one chunk file and resume replays them. Unlike sweep
		// chunks, the log survives success — it is the auditable record of
		// exactly which points the search probed, and re-running the same
		// search replays it entirely instead of probing again.
		opts.Checkpoint = &dse.Checkpoint{Dir: checkpoint}
	}
	// Every returned optimum is verified online through the chosen oracle —
	// the same recipes the shadow audit uses for exhaustive sweeps.
	oracle := auditOracle(au.oracle, method, r, a)
	opts.Verify = func(l stacks.Latencies) (float64, error) {
		c, _, err := oracle.Truth(context.Background(), l)
		return c, err
	}

	grid, _ := sp.SizeSaturating()
	fmt.Printf("%s: %s search over %d latency points with %s (lazy probing)\n",
		app, sf.spec.Mode, grid, method)

	res, err := dse.Search(eng, r.Cfg.Lat, sp, sf.spec, opts)
	if err != nil {
		return err
	}
	printSearch(res, sp, len(a.Trace.Records))
	if traceOut != "" {
		if err := writeTrace(traceOut, opts.Tracer); err != nil {
			return err
		}
	}
	if checkpoint != "" {
		fmt.Fprintf(os.Stderr, "probe log: kept in %s (re-running this search replays it; delete to probe afresh)\n", checkpoint)
	}
	if sf.out != "" {
		payload, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding search result: %w", err)
		}
		if err := os.WriteFile(sf.out, append(payload, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing search result: %w", err)
		}
		fmt.Fprintf(os.Stderr, "search: wrote %s\n", sf.out)
	}
	if sf.selfcheck {
		if err := searchSelfcheck(res, sp, sf.spec, r, a, eng, par, batch); err != nil {
			return err
		}
	}
	return nil
}

// searchSelfcheck materializes the grid, sweeps it exhaustively through the
// same engine, folds the sweep into the mode's exact answer, and fails hard
// on any divergence — the CLI form of the exhaustive-equivalence tests.
func searchSelfcheck(res *dse.SearchResult, sp *dse.Space, spec *dse.SearchSpec,
	r *experiments.Runner, a *experiments.App, eng dse.Engine, par, batch int) error {
	if _, ok := sp.SizeWithin(selfcheckLimit); !ok {
		return fmt.Errorf("-search-selfcheck needs a materializable space (at most %d points)", selfcheckLimit)
	}
	plan, err := dse.NewSearchPlan(sp, spec)
	if err != nil {
		return err
	}
	points, err := plan.Enumerate(r.Cfg.Lat)
	if err != nil {
		return err
	}
	rep, err := dse.Explore(eng, points, dse.ExploreOptions{Parallelism: par, BatchSize: batch})
	if err != nil {
		return err
	}
	cycles := make([]float64, len(rep.Results))
	for i, p := range rep.Results {
		cycles[i] = p.Cycles
	}
	ref, err := plan.Exhaustive(cycles, len(a.Trace.Records))
	if err != nil {
		return err
	}
	if err := dse.EqualAnswers(res, ref); err != nil {
		return fmt.Errorf("selfcheck: search answer diverged from the exhaustive sweep: %w", err)
	}
	fmt.Printf("selfcheck: search answer equals the exhaustive sweep over all %d points (%d probed)\n",
		len(points), res.Probes+res.ResumedProbes)
	return nil
}

// printSearch renders the search outcome: probe telemetry, verification,
// then the answer — one optimum, or the Pareto frontier.
func printSearch(res *dse.SearchResult, sp *dse.Space, microOps int) {
	uops := float64(microOps)
	if res.ResumedProbes > 0 {
		fmt.Printf("probe log: resumed %d probes; %d new\n", res.ResumedProbes, res.Probes)
	}
	fmt.Printf("search: %d probes in %d rounds (peak %d boxes) over %v — %.4g%% of the grid\n",
		res.Probes, res.Rounds, res.PeakBoxes, res.Wall.Round(time.Millisecond),
		100*float64(res.Probes)/float64(res.GridPoints))
	if !res.Converged {
		fmt.Println("search: stopped by the round cap before proving exactness; the answer is best-effort")
	}
	if res.Verified {
		fmt.Printf("verify: every returned optimum re-derived by the oracle (max CPI error %.4g%%)\n",
			res.VerifyMaxErrPct)
	}
	switch {
	case res.Mode == dse.SearchTarget && !res.Feasible:
		fmt.Printf("target: no point meets the budget (the space floors at CPI %.4f)\n",
			res.FastestCycles/uops)
	case res.Best != nil:
		fmt.Printf("best: CPI %.4f cost %.4g  %s\n",
			res.Best.Cycles/uops, res.Best.Cost, searchPointMods(res.Best, sp))
	}
	if len(res.Frontier) > 0 {
		fmt.Printf("pareto frontier (%d points, fastest first):\n", len(res.Frontier))
		for i := range res.Frontier {
			p := &res.Frontier[i]
			fmt.Printf("  CPI %.4f cost %.4g  %s\n", p.Cycles/uops, p.Cost, searchPointMods(p, sp))
		}
	}
}

func searchPointMods(p *dse.SearchPoint, sp *dse.Space) string {
	var mods []string
	for _, ax := range sp.Axes {
		mods = append(mods, fmt.Sprintf("%s=%.0f", ax.Event, p.Lat[ax.Event]))
	}
	return strings.Join(mods, " ")
}
