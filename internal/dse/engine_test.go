package dse

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/isa"
)

// TestSweepFingerprintsPinned pins the sweep identity hash of every engine
// for one small fixed workload and point list. The hash names checkpoint
// directories, probe logs and fleet sweeps and seeds the audit sampler, so
// a silent change would orphan every chunk already on disk: the hex values
// below may only change together with a deliberate format break. A
// NeedFingerprint sweep must publish the same bytes; the search identity
// (the probe-log key) is pinned beside it. Each engine is resolved through
// the name lookup, which the table's failure rows also cover.
func TestSweepFingerprintsPinned(t *testing.T) {
	cfg, g, a, _ := prepareWorkload(t, "456.hmmer", 3, 800, 0)
	uops := smallStream(t, "456.hmmer", 3, 800)
	sp := space2x3()
	pts := sp.Enumerate(cfg.Lat)
	spec := &SearchSpec{Mode: SearchHalving}
	all := EngineInputs{Config: cfg,
		Analysis: func() (*core.Analysis, error) { return a, nil },
		UOps:     func() ([]isa.MicroOp, error) { return uops, nil },
		Graph:    func() (*depgraph.Graph, error) { return g, nil }}
	for _, c := range []struct {
		name       string
		in         EngineInputs
		method     string
		want       string
		wantSearch string
		wantErr    string // set when the lookup must fail
	}{
		{name: "rpstacks", in: all, method: "rpstacks",
			want:       "be2f4c8a9555e4be06e932d69859cfae0f3dee8930db111bcd6f1300c0fba7b5",
			wantSearch: "f73e7175281e203bce3bcfa0221c02082f9c60e4ed70c5589cf181e6a4c39ffd"},
		{name: "graph", in: all, method: "graph",
			want:       "a622603c1e13d138eb78b12de010ae4c27defd9bbb766faa411750f62ec1f975",
			wantSearch: "ec7bda23ffdab9dd74b14961803652478fe7cabd316e1296d11cd6b412b14a4b"},
		{name: "sim", in: all, method: "simulator",
			want:       "07afe96ef7bb5ec76763ccd121e6d364776cc6a6c643be294a6b86c53bfdaf57",
			wantSearch: "8fe2422f0add71c8c17b952c8f78153846e0a0c9ab30c48b542ac76de97c288f"},
		{name: "graf", in: all, wantErr: "unknown engine"},
		{name: "simulator", in: all, wantErr: "unknown engine"},
		{name: "graph", in: EngineInputs{Analysis: all.Analysis}, wantErr: "needs a dependence graph"},
		{name: "sim", in: EngineInputs{Config: cfg}, wantErr: "needs a configuration and a µop stream"},
		{name: "sim", in: EngineInputs{Config: cfg, UOps: func() ([]isa.MicroOp, error) { return nil, nil }},
			wantErr: "needs a configuration and a µop stream"},
	} {
		e, err := EngineByName(c.name, c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("EngineByName(%q) error %v, want %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if m, err := EngineMethod(c.name); err != nil || m != c.method {
			t.Errorf("EngineMethod(%q) = %q, %v; want %q", c.name, m, err, c.method)
		}
		fp, err := e.Fingerprint(pts)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(fp); got != c.want {
			t.Errorf("%s: sweep fingerprint %s, pinned %s", c.method, got, c.want)
		}
		rep, err := Explore(e, pts, ExploreOptions{NeedFingerprint: true, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Method != c.method {
			t.Errorf("Report.Method %q, want %q", rep.Method, c.method)
		}
		if got := hex.EncodeToString(rep.Fingerprint); got != c.want {
			t.Errorf("%s: NeedFingerprint sweep published %s, pinned %s", c.method, got, c.want)
		}
		res, err := Search(e, cfg.Lat, &sp, spec, SearchOptions{ExploreOptions: ExploreOptions{NeedFingerprint: true}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Method != c.method {
			t.Errorf("SearchResult.Method %q, want %q", res.Method, c.method)
		}
		if got := hex.EncodeToString(res.Fingerprint); got != c.wantSearch {
			t.Errorf("%s: search fingerprint %s, pinned %s", c.method, got, c.wantSearch)
		}
	}
	if _, err := Explore(Engine{}, pts, ExploreOptions{}); err == nil {
		t.Error("Explore accepted the zero Engine")
	}
}

// TestEngineByNameAnalysisOnDemand: the analysis provider runs only when the
// rpstacks engine is named.
func TestEngineByNameAnalysisOnDemand(t *testing.T) {
	checkProviderOnDemand(t, "rpstacks", "needs an RpStacks analysis")
}

// TestEngineByNameGraphOnDemand: the graph provider runs only when the
// graph engine is named.
func TestEngineByNameGraphOnDemand(t *testing.T) {
	checkProviderOnDemand(t, "graph", "needs a dependence graph")
}

// TestEngineByNameUOpsOnDemand: the µop-stream provider runs only when the
// sim engine is named.
func TestEngineByNameUOpsOnDemand(t *testing.T) {
	checkProviderOnDemand(t, "sim", "needs a configuration and a µop stream")
}

// checkProviderOnDemand: looking up engine calls its own input provider once
// and no other, the provider's error is the lookup's error, and a nil result
// is a missing input, reported as need.
func checkProviderOnDemand(t *testing.T, engine, need string) {
	t.Helper()
	cfg, g, a, _ := prepareWorkload(t, "456.hmmer", 3, 800, 0)
	uops := smallStream(t, "456.hmmer", 3, 800)
	failing := errors.New("input unavailable")
	// inputs returns providers of the given values and error, each counting
	// its calls under the name of the engine that reads it.
	inputs := func(calls map[string]int, err error, a *core.Analysis, g *depgraph.Graph, uops []isa.MicroOp) EngineInputs {
		return EngineInputs{Config: cfg,
			Analysis: func() (*core.Analysis, error) { calls["rpstacks"]++; return a, err },
			Graph:    func() (*depgraph.Graph, error) { calls["graph"]++; return g, err },
			UOps:     func() ([]isa.MicroOp, error) { calls["sim"]++; return uops, err },
		}
	}
	calls := map[string]int{}
	if _, err := EngineByName(engine, inputs(calls, nil, a, g, uops)); err != nil {
		t.Fatalf("EngineByName(%q): %v", engine, err)
	}
	if len(calls) != 1 || calls[engine] != 1 {
		t.Errorf("%s lookup called the providers %v; want its own provider once", engine, calls)
	}
	if _, err := EngineByName(engine, inputs(calls, failing, a, g, uops)); !errors.Is(err, failing) {
		t.Errorf("%s lookup with a failing provider: error %v, want the provider's error", engine, err)
	}
	if _, err := EngineByName(engine, inputs(calls, nil, nil, nil, nil)); err == nil || !strings.Contains(err.Error(), need) {
		t.Errorf("%s lookup with an empty provider: error %v, want %q", engine, err, need)
	}
}
