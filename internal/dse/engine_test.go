package dse

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

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
	all := EngineInputs{Analysis: a, Config: cfg,
		UOps:  func() ([]isa.MicroOp, error) { return uops, nil },
		Graph: func() (*depgraph.Graph, error) { return g, nil }}
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
		{name: "graph", in: EngineInputs{Analysis: a}, wantErr: "needs a dependence graph"},
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

// TestEngineByNameGraphOnDemand: the graph provider runs only when the
// graph engine is named, and its error is the lookup's error.
func TestEngineByNameGraphOnDemand(t *testing.T) {
	cfg, _, a, _ := prepareWorkload(t, "456.hmmer", 3, 800, 0)
	uops := smallStream(t, "456.hmmer", 3, 800)
	calls := 0
	failing := errors.New("graph unavailable")
	in := EngineInputs{Analysis: a, Config: cfg,
		UOps:  func() ([]isa.MicroOp, error) { return uops, nil },
		Graph: func() (*depgraph.Graph, error) { calls++; return nil, failing }}
	for _, name := range []string{"rpstacks", "sim"} {
		if _, err := EngineByName(name, in); err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
	}
	if calls != 0 {
		t.Fatalf("rpstacks and sim lookups called the graph provider %d times", calls)
	}
	if _, err := EngineByName("graph", in); !errors.Is(err, failing) || calls != 1 {
		t.Fatalf("graph lookup: error %v after %d provider calls; want the provider's error after 1", err, calls)
	}
}

// TestEngineByNameUOpsOnDemand: the µop-stream provider runs only when the
// sim engine is named, and its error is the lookup's error.
func TestEngineByNameUOpsOnDemand(t *testing.T) {
	cfg, g, a, _ := prepareWorkload(t, "456.hmmer", 3, 800, 0)
	calls := 0
	failing := errors.New("µop stream unavailable")
	in := EngineInputs{Analysis: a, Config: cfg,
		Graph: func() (*depgraph.Graph, error) { return g, nil },
		UOps:  func() ([]isa.MicroOp, error) { calls++; return nil, failing }}
	for _, name := range []string{"rpstacks", "graph"} {
		if _, err := EngineByName(name, in); err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
	}
	if calls != 0 {
		t.Fatalf("rpstacks and graph lookups called the µop provider %d times", calls)
	}
	if _, err := EngineByName("sim", in); !errors.Is(err, failing) || calls != 1 {
		t.Fatalf("sim lookup: error %v after %d provider calls; want the provider's error after 1", err, calls)
	}
}
