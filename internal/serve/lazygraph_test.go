package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve/cache"
	"repro/internal/store"
)

// memAnalysis fails the test unless the memory tier holds the analysis of
// a trace digest.
func memAnalysis(t *testing.T, s *Server, digest string) {
	t.Helper()
	_, tier, err := s.analyses.GetOrCompute(digest+"|"+s.setupPrint, analysisCodec(),
		func() (*core.Analysis, time.Duration, error) { return nil, 0, errors.New("not cached") })
	if err != nil || tier != cache.TierMem {
		t.Fatalf("analysis for %s: tier %v, error %v; want a memory hit", digest, tier, err)
	}
}

// memGraph returns the graph memo's entry for a trace digest, or nil when
// it holds none.
func memGraph(s *Server, digest string) *depgraph.Graph {
	g, _, _ := s.graphs.GetOrCompute(digest, func() (*depgraph.Graph, time.Duration, error) {
		return nil, 0, errors.New("not built")
	})
	return g
}

// graphBuilds counts the graph-build spans in the named jobs' traces.
func graphBuilds(t *testing.T, s *Server, ids ...string) int {
	t.Helper()
	return jobSpans(t, s, obs.NameGraphBuild, ids...)
}

// runJob submits a body and waits for the job to finish successfully.
func runJob(t *testing.T, base, body string) jobView {
	t.Helper()
	v, code := submitJob(t, base, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	v = pollJob(t, base, v.ID)
	if v.Status != JobDone {
		t.Fatalf("job %s: status %s (error %q), want done", v.ID, v.Status, v.Error)
	}
	return v
}

// TestGraphBuiltOnFirstUse: the dependence graph is an input of the graph
// engine alone. A cold RpStacks job and a durable-tier hit leave it
// unbuilt; two concurrent graph jobs over the same cached workload build
// it once between them and return exactly the graph engine's answer.
func TestGraphBuiltOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Cold: simulate, analyze, publish.
	s1 := New(Config{Workers: 1, SweepParallelism: 2, Store: open()})
	ts1 := httptest.NewServer(s1)
	cold := runJob(t, ts1.URL, testBody(""))
	if cold.Result.SetupCached {
		t.Fatal("first job on an empty store reports a cached setup")
	}
	digest := cold.Result.TraceDigest
	memAnalysis(t, s1, digest)
	if memGraph(s1, digest) != nil {
		t.Error("a cold RpStacks job built the dependence graph")
	}
	if n := graphBuilds(t, s1, cold.ID); n != 0 {
		t.Errorf("cold RpStacks job recorded %d graph-build spans, want 0", n)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Warm start on the same store: the RpStacks job is a disk hit.
	var gate sync.WaitGroup
	s2 := New(Config{Workers: 2, SweepParallelism: 2, Store: open()})
	s2.beforeJob = func(job *Job) {
		if job.Spec.Engine == "graph" {
			// Hold each graph job until both have a worker, so their
			// setups overlap on the one cached entry.
			gate.Done()
			gate.Wait()
		}
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	disk := runJob(t, ts2.URL, testBody(""))
	if !disk.Result.SetupCached {
		t.Fatal("job after a restart on the same store did not hit the durable tier")
	}
	if pointsJSON(t, disk.Result) != pointsJSON(t, cold.Result) {
		t.Error("disk-hit RpStacks job ranks differently from the cold job")
	}
	memAnalysis(t, s2, digest)
	if memGraph(s2, digest) != nil {
		t.Error("a disk-hit RpStacks job built the dependence graph")
	}

	// Two concurrent graph jobs on the cached workload.
	gate.Add(2)
	graphBody := testBody(`,"engine":"graph"`)
	var ids [2]string
	for i := range ids {
		v, code := submitJob(t, ts2.URL, graphBody)
		if code != http.StatusAccepted {
			t.Fatalf("graph submit status %d, want 202", code)
		}
		ids[i] = v.ID
	}
	var done [2]jobView
	for i, id := range ids {
		if done[i] = pollJob(t, ts2.URL, id); done[i].Status != JobDone {
			t.Fatalf("graph job %s: status %s (error %q)", id, done[i].Status, done[i].Error)
		}
		if !done[i].Result.SetupCached {
			t.Errorf("graph job %s did not reuse the cached workload", id)
		}
	}
	if n := graphBuilds(t, s2, disk.ID, ids[0], ids[1]); n != 1 {
		t.Errorf("%d graph-build spans across the disk hit and two graph jobs, want 1", n)
	}
	if memGraph(s2, digest) == nil {
		t.Fatal("graph jobs left the graph memo without the trace's graph")
	}

	// The reference: the graph engine over a graph built directly.
	cfg, tr := referenceTrace(t)
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	space := testSpace(t)
	rep, err := dse.Explore(dse.GraphEngine(g), space.Enumerate(cfg.Lat), dse.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, len(rep.Results))
	for i, r := range rep.Results {
		p := rep.Point(i)
		want[fmt.Sprint(p[space.Axes[0].Event], p[space.Axes[1].Event])] = r.Cycles
	}
	for _, v := range done {
		if len(v.Result.Points) != len(want) {
			t.Fatalf("graph job %s returned %d points, want %d", v.ID, len(v.Result.Points), len(want))
		}
		for _, p := range v.Result.Points {
			key := fmt.Sprint(p.Latencies[space.Axes[0].Event.String()], p.Latencies[space.Axes[1].Event.String()])
			if c, ok := want[key]; !ok || c != p.Cycles {
				t.Errorf("graph job %s at %s: %g cycles, graph engine %g", v.ID, key, p.Cycles, c)
			}
		}
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestUploadSearchVerifiesThroughGraph: an uploaded trace has no
// regeneration recipe, so an RpStacks search over it verifies its optimum
// on the graph oracle — which builds the graph once, for that job.
func TestUploadSearchVerifiesThroughGraph(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	traceB64, digest := tinyTraceB64(t)
	v := runJob(t, ts.URL, fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8,12,16,20","MemD=150,200,280"],`+
		`"engine":"rpstacks","search":"halving","timeout_ms":120000}`, traceB64))
	if v.Result.Search == nil || !v.Result.Search.Verified {
		t.Fatalf("upload search result %+v: want a verified search", v.Result.Search)
	}
	if n := graphBuilds(t, s, v.ID); n != 1 {
		t.Errorf("upload search recorded %d graph-build spans, want 1", n)
	}
	memAnalysis(t, s, digest)
	if memGraph(s, digest) == nil {
		t.Error("the graph oracle's graph is not in the graph memo")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGraphJobNeverAnalyzes: the RpStacks analysis is an input of the
// RpStacks engine alone. A cold graph job makes no analysis lookup and
// records no analyze span; the first RpStacks job on the same trace
// analyzes it once, and the next one hits the cached analysis.
func TestGraphJobNeverAnalyzes(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer stopServer(t, s, ts)

	graph := runJob(t, ts.URL, engineBody("graph", ""))
	if n := jobSpans(t, s, obs.NameAnalyze, graph.ID); n != 0 {
		t.Errorf("cold graph job recorded %d analyze spans, want 0", n)
	}
	if st := s.analyses.Stats().Memory; st.Hits+st.Misses != 0 {
		t.Errorf("cold graph job made %d analysis lookups, want 0", st.Hits+st.Misses)
	}
	if rec, ok := s.journal.Get(graph.ID); !ok || rec.CacheBuilds != 1 {
		t.Errorf("cold graph job journaled %d cache builds, want 1 (the workload)", rec.CacheBuilds)
	}
	if n := graphBuilds(t, s, graph.ID); n != 1 {
		t.Errorf("cold graph job recorded %d graph-build spans, want 1", n)
	}

	first := runJob(t, ts.URL, testBody(""))
	second := runJob(t, ts.URL, testBody(""))
	if first.Result.TraceDigest != graph.Result.TraceDigest {
		t.Fatal("the RpStacks job simulated a different trace")
	}
	for _, c := range []struct {
		v      jobView
		spans  int
		cached bool
	}{{first, 1, false}, {second, 0, true}} {
		if n := jobSpans(t, s, obs.NameAnalyze, c.v.ID); n != c.spans {
			t.Errorf("RpStacks job %s recorded %d analyze spans, want %d", c.v.ID, n, c.spans)
		}
		if c.v.Result.SetupCached != c.cached {
			t.Errorf("RpStacks job %s: setup cached %v, want %v", c.v.ID, c.v.Result.SetupCached, c.cached)
		}
		if n := graphBuilds(t, s, c.v.ID); n != 0 {
			t.Errorf("RpStacks job %s recorded %d graph-build spans, want 0", c.v.ID, n)
		}
	}
	if pointsJSON(t, first.Result) != pointsJSON(t, second.Result) {
		t.Error("the cached analysis ranks differently from the built one")
	}
}
