package dse_test

import (
	"context"
	"testing"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/trace"
	"repro/internal/workload"
)

// search_oracle_test.go — the audit-verification contract, tested from
// outside the package the way real callers (rpexplore, rpserved) wire it:
// every optimum a search returns is re-derived through an internal/audit
// oracle, and for engine/oracle pairs that are exact by construction —
// graph search vs the graph oracle, lossless rpstacks vs the graph oracle,
// simulation search vs the simulator itself — the recorded worst-case
// verification error must be exactly zero, not merely small.

func oracleSubstrate(t *testing.T, n int) (*config.Config, *depgraph.Graph, *trace.Trace, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName("437.leslie3d")
	if !ok {
		t.Fatal("unknown workload")
	}
	uops := workload.Stream(prof, 23, n)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, g, tr, nil
}

func oracleSpace() *dse.Space {
	return &dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.FpAdd, Values: []float64{2, 4, 6}},
	}}
}

// verified asserts a search result carries a passing, exactly-zero oracle
// verification over a non-empty answer.
func verified(t *testing.T, label string, res *dse.SearchResult) {
	t.Helper()
	if !res.Verified {
		t.Fatalf("%s: result not verified", label)
	}
	if res.VerifyMaxErrPct != 0 {
		t.Fatalf("%s: exact engine/oracle pair scored %g%% verification error, want exactly 0", label, res.VerifyMaxErrPct)
	}
	if res.Best == nil && len(res.Frontier) == 0 {
		t.Fatalf("%s: nothing verified — empty answer", label)
	}
}

// TestSearchGraphOracleVerification checks the graph engine against the
// graph oracle: the same longest-path computation, so zero error exactly,
// and the verified cycle copy on each point must equal the prediction.
func TestSearchGraphOracleVerification(t *testing.T) {
	const n = 2500
	cfg, g, _, _ := oracleSubstrate(t, n)
	oracle := &audit.GraphOracle{Graph: g}
	opts := dse.SearchOptions{
		MicroOps: n,
		Verify: func(l stacks.Latencies) (float64, error) {
			c, _, err := oracle.Truth(context.Background(), l)
			return c, err
		},
	}
	probe, err := dse.Search(dse.GraphEngine(g), cfg.Lat, oracleSpace(), &dse.SearchSpec{Mode: dse.SearchHalving}, dse.SearchOptions{MicroOps: n})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*dse.SearchSpec{
		{Mode: dse.SearchHalving},
		{Mode: dse.SearchPareto},
		{Mode: dse.SearchTarget, TargetCPI: (probe.FastestCycles + 1) / n},
	} {
		res, err := dse.Search(dse.GraphEngine(g), cfg.Lat, oracleSpace(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Mode == dse.SearchTarget && !res.Feasible {
			t.Fatalf("%s: budget infeasible; pick a different TargetCPI", spec)
		}
		verified(t, spec.String(), res)
		for _, p := range append(res.Frontier, deref(res.Best)...) {
			if p.VerifyCycles != p.Cycles {
				t.Fatalf("%s: verified cycles %g != predicted %g", spec, p.VerifyCycles, p.Cycles)
			}
		}
	}
}

func deref(p *dse.SearchPoint) []dse.SearchPoint {
	if p == nil {
		return nil
	}
	return []dse.SearchPoint{*p}
}

// TestSearchLosslessRpStacksOracleVerification checks the documented
// -lossless contract: an rpstacks analysis built with merging disabled, no
// stack cap and a whole-trace segment predicts exactly the graph longest
// path, so a search over it verified by the graph oracle must score 0.
// Lossless path sets grow exponentially with trace length, so the
// substrate stays tiny, matching the CI audit-smoke recipe.
func TestSearchLosslessRpStacksOracleVerification(t *testing.T) {
	const n = 60
	cfg := config.Baseline()
	prof, _ := workload.ByName("456.hmmer")
	uops := workload.Stream(prof, 23, n)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.DisableMerge = true
	opts.MaxStacks = 0
	opts.SegmentLength = len(tr.Records)
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &audit.GraphOracle{Graph: g}
	res, err := dse.Search(dse.RpStacksEngine(a), cfg.Lat, oracleSpace(), &dse.SearchSpec{Mode: dse.SearchPareto}, dse.SearchOptions{
		MicroOps: n,
		Verify: func(l stacks.Latencies) (float64, error) {
			c, _, err := oracle.Truth(context.Background(), l)
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	verified(t, "lossless rpstacks vs graph oracle", res)
}

// TestSearchSimOracleVerification checks the simulation engine against the
// simulation oracle — the self-audit every served search job gets: the
// oracle re-runs the same simulator, so the error is zero by construction
// and anything else means the oracle saw different inputs.
func TestSearchSimOracleVerification(t *testing.T) {
	const n = 400
	cfg := config.Baseline()
	prof, _ := workload.ByName("429.mcf")
	uops := workload.Stream(prof, 23, n)
	oracle := &audit.SimOracle{Cfg: cfg, UOps: uops}
	res, err := dse.Search(dse.SimEngine(cfg, uops), cfg.Lat, &dse.Space{Axes: []dse.Axis{
		{Event: stacks.L1D, Values: []float64{1, 3}},
		{Event: stacks.MemD, Values: []float64{66, 133}},
	}}, &dse.SearchSpec{Mode: dse.SearchHalving}, dse.SearchOptions{
		MicroOps: n,
		Verify: func(l stacks.Latencies) (float64, error) {
			c, _, err := oracle.Truth(context.Background(), l)
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	verified(t, "sim self-audit", res)
}
