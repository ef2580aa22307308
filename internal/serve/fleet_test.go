package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/stacks"
	"repro/internal/store"
)

// startServeWorkers runs n in-process fleet workers against the server's
// /fleet/v1/ mount and stops them when the test ends. The workers are
// returned so tests can scrape their own /metrics handlers.
func startServeWorkers(t *testing.T, url string, shared *store.Shared, n int) []*fleet.Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ws := make([]*fleet.Worker, n)
	for i := 0; i < n; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			CoordinatorURL: url,
			Shared:         shared,
			Concurrency:    2,
			ID:             fmt.Sprintf("serve-w%d", i),
			PollInterval:   2 * time.Millisecond,
		})
		ws[i] = w
		go func() {
			if err := w.Run(ctx); err != nil && err != context.Canceled {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return ws
}

// metricSum adds every sample of one family across its label sets — chunk
// attribution between workers is racy, but the fleet-wide total is not.
func metricSum(exposition, name string) float64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		if i := strings.Index(rest, "} "); i >= 0 {
			rest = rest[i+2:]
		} else if !strings.HasPrefix(rest, " ") {
			continue // a longer family name sharing the prefix
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

// TestServerFleetDelegation is the serve-layer fleet integration test: a
// server started with a fleet store delegates its graph sweep to two
// rpworker-style workers, and the job response is point-for-point identical
// to the local reference sweep. The server's analysis options are not the
// defaults: workers build no analysis, so they cannot cost a graph sweep its
// delegation. The rpstacks_fleet_* families must land on /metrics, and an
// uploaded-trace job — which has no regeneration recipe — must still
// complete through the local path without touching the fleet.
func TestServerFleetDelegation(t *testing.T) {
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.SegmentLength = 2000
	s := New(Config{
		Workers:          2,
		QueueDepth:       8,
		SweepParallelism: 2,
		AnalysisOpts:     opts,
		FleetStore:       shared,
		FleetLeaseTTL:    time.Minute,
		FleetChunkSize:   3, // 12-point grid -> 4 chunks
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	workers := startServeWorkers(t, ts.URL, shared, 2)

	v, code := submitJob(t, ts.URL, engineBody("graph", ""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	done := pollJob(t, ts.URL, v.ID)
	if done.Status != JobDone {
		t.Fatalf("status %s (error %q), want done", done.Status, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done without a result")
	}
	want := referencePoints(t, "graph")
	if len(done.Result.Points) != len(want) {
		t.Fatalf("returned %d points, want %d", len(done.Result.Points), len(want))
	}
	for k, got := range done.Result.Points {
		if got.Cycles != want[k].Cycles {
			t.Fatalf("point %d: cycles %g, want %g", k, got.Cycles, want[k].Cycles)
		}
		for ev, lat := range want[k].Latencies {
			if got.Latencies[ev] != lat {
				t.Fatalf("point %d: %s latency %g, want %g", k, ev, got.Latencies[ev], lat)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	if v := metricValue(t, exp, `rpstacks_fleet_chunks_completed_total{result="first"}`); v != 4 {
		t.Errorf("fleet first completions = %g, want 4", v)
	}
	if v := metricValue(t, exp, "rpstacks_fleet_leases_expired_total"); v != 0 {
		t.Errorf("fleet lease expiries = %g, want 0", v)
	}
	if v := metricValue(t, exp, `rpstacks_sweep_duration_seconds_count{engine="graph"}`); v != 1 {
		t.Errorf("sweeps observed = %g, want 1 (fleet sweeps feed the same histogram)", v)
	}
	// Federation: the per-worker summaries workers self-report on complete.
	// These are throughput counters — a stolen chunk both workers evaluate
	// counts twice — so the fleet-wide totals are at least the sweep's size.
	if got := metricSum(exp, "rpstacks_fleet_worker_chunks_total"); got < 4 {
		t.Errorf("federated worker chunk total = %g, want >= 4", got)
	}
	if got := metricSum(exp, "rpstacks_fleet_worker_points_total"); got < 12 {
		t.Errorf("federated worker point total = %g, want >= 12", got)
	}

	// The delegated job's /debug/trace is the merged multi-process timeline:
	// the server's own track plus one per worker that completed a chunk.
	resp, err = http.Get(ts.URL + "/debug/trace?job=" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	traceBody := readAll(t, resp)
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traceBody), &trace); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	if !procs["rpserved"] {
		t.Errorf("merged trace lacks the rpserved track: %v", procs)
	}
	workerTracks := 0
	for n := range procs {
		if strings.HasPrefix(n, "serve-w") {
			workerTracks++
		}
	}
	if workerTracks == 0 {
		t.Errorf("merged trace has no worker tracks: %v", procs)
	}

	// Each worker exposes its own /metrics on the health handler; together
	// they account for at least every chunk and point of the sweep (stolen
	// chunks may be evaluated — and counted — twice).
	var wChunks, wPoints float64
	for _, w := range workers {
		wts := httptest.NewServer(w.Handler())
		wresp, err := http.Get(wts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		wexp := readAll(t, wresp)
		wts.Close()
		if !strings.Contains(wexp, "# TYPE rpstacks_worker_chunks_total counter") {
			t.Errorf("worker exposition lacks rpstacks_worker_chunks_total TYPE line")
		}
		wChunks += metricSum(wexp, "rpstacks_worker_chunks_total")
		wPoints += metricSum(wexp, "rpstacks_worker_points_total")
	}
	if wChunks < 4 || wPoints < 12 {
		t.Errorf("worker-side totals = %g chunks / %g points, want >= 4 / >= 12", wChunks, wPoints)
	}

	// An uploaded trace has no (workload, seed, µops) recipe a worker could
	// rebuild, so it must run locally — and leave the fleet counters alone.
	traceB64, _ := tinyTraceB64(t)
	upload := fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8,12,16,20","MemD=150,200,280"],`+
		`"engine":"rpstacks","top":12,"timeout_ms":120000}`, traceB64)
	uv, code := submitJob(t, ts.URL, upload)
	if code != http.StatusAccepted {
		t.Fatalf("upload submit status %d, want 202", code)
	}
	udone := pollJob(t, ts.URL, uv.ID)
	if udone.Status != JobDone {
		t.Fatalf("upload status %s (error %q), want done", udone.Status, udone.Error)
	}
	if udone.Result == nil || len(udone.Result.Points) == 0 {
		t.Fatal("upload job done without ranked points")
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp = readAll(t, resp)
	if v := metricValue(t, exp, `rpstacks_fleet_chunks_completed_total{result="first"}`); v != 4 {
		t.Errorf("fleet first completions after upload job = %g, want still 4", v)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRpStacksJobsStayInProcess: the fleet serves only trace-linear engines.
// On a fleet-mounted server with workers attached, an rpstacks sweep job and
// an rpstacks Pareto search both run in-process — no chunk is ever leased —
// and answer exactly like the local references.
func TestRpStacksJobsStayInProcess(t *testing.T) {
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workers:          1,
		QueueDepth:       4,
		SweepParallelism: 2,
		FleetStore:       shared,
		FleetLeaseTTL:    time.Minute,
		FleetChunkSize:   2,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	startServeWorkers(t, ts.URL, shared, 2)

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit status %d, want 202", code)
	}
	done := pollJob(t, ts.URL, v.ID)
	if done.Status != JobDone {
		t.Fatalf("sweep status %s (error %q), want done", done.Status, done.Error)
	}
	want := referencePoints(t, "rpstacks")
	if len(done.Result.Points) != len(want) {
		t.Fatalf("sweep returned %d points, want %d", len(done.Result.Points), len(want))
	}
	for k, got := range done.Result.Points {
		if got.Cycles != want[k].Cycles {
			t.Fatalf("sweep point %d: cycles %g, want %g", k, got.Cycles, want[k].Cycles)
		}
	}

	cfg, a, microOps := searchSetup(t)
	spec := &dse.SearchSpec{Mode: dse.SearchPareto}
	ref, _ := searchReference(t, cfg, dse.RpStacksEngine(a), microOps, spec)
	v, code = submitJob(t, ts.URL, searchBody(spec.String(), ""))
	if code != http.StatusAccepted {
		t.Fatalf("search submit status %d, want 202", code)
	}
	matchSearchJob(t, "rpstacks "+spec.String(), pollJob(t, ts.URL, v.ID), ref)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, readAll(t, resp), "rpstacks_fleet_chunks_leased_total"); v != 0 {
		t.Errorf("fleet leased %g chunks for rpstacks jobs, want 0", v)
	}
}

// TestAnalysisParallelismIdentity: the analysis worker count is an
// execution parameter, so it must not change the server's artifact identity
// or cost it fleet eligibility.
func TestAnalysisParallelismIdentity(t *testing.T) {
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, workers := range []int{0, 4} {
		opts := core.DefaultOptions()
		opts.Parallelism = workers
		s := New(Config{Workers: 1, QueueDepth: 1, AnalysisOpts: opts, FleetStore: shared})
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if workers == 0 {
			want = s.setupPrint
		} else if s.setupPrint != want {
			t.Errorf("Parallelism %d: setup print %s, want %s", workers, s.setupPrint, want)
		}
		if !s.fleetEligible {
			t.Errorf("Parallelism %d: server lost fleet eligibility", workers)
		}
	}
}

// TestServerFleetIneligibleConfig proves the eligibility gate: a server whose
// machine setup differs from the baseline the workers rebuild must not
// delegate — the sweep runs locally and still answers correctly, with no
// workers attached at all.
func TestServerFleetIneligibleConfig(t *testing.T) {
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	cfg.Lat[stacks.L2D] += 2 // not the setup workers deterministically rebuild
	s := New(Config{
		Workers:       1,
		QueueDepth:    4,
		BaseConfig:    cfg,
		FleetStore:    shared,
		FleetLeaseTTL: time.Minute,
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// No workers started: if the server tried to delegate, the job would hang
	// until its deadline instead of finishing.
	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	done := pollJob(t, ts.URL, v.ID)
	if done.Status != JobDone {
		t.Fatalf("status %s (error %q), want done", done.Status, done.Error)
	}
	if done.Result == nil || len(done.Result.Points) == 0 {
		t.Fatal("job done without ranked points")
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
