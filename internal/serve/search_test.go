package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/workload"
)

// search_test.go — the service face of guided search: request validation
// (search lifts the grid cap, replaces the shadow audit, borrows
// target_cpi), end-to-end jobs whose answers must equal an independent
// exhaustive reference, fleet-served probe rounds, and the
// rpstacks_search_* metric families.

// searchSetup replicates the server's named-workload pipeline for
// testWorkload: the same warmup, simulation and default analysis, returning
// the engine inputs an independent reference search needs.
func searchSetup(t *testing.T) (*config.Config, *core.Analysis, int) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(testWorkload)
	if !ok {
		t.Fatalf("unknown workload %s", testWorkload)
	}
	gen := workload.NewGenerator(prof, 0)
	warm := 3 * testMicroOps
	stream := gen.Take(warm + testMicroOps)
	cut := warm
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	sim, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(stream[:cut])
	tr, err := sim.Run(stream[cut:])
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cfg, a, len(tr.Records)
}

// searchReference computes the exhaustive answer for one search spec over
// the testAxes grid, independent of every serve and search code path: a
// plain materialized sweep of eng folded by SearchPlan.Exhaustive.
func searchReference(t *testing.T, cfg *config.Config, eng dse.Engine, microOps int, spec *dse.SearchSpec) (*dse.SearchResult, []float64) {
	t.Helper()
	var space dse.Space
	for _, raw := range testAxes {
		ax, err := dse.ParseAxisSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		space.Axes = append(space.Axes, ax)
	}
	plan, err := dse.NewSearchPlan(&space, spec)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := plan.Enumerate(cfg.Lat)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dse.Explore(eng, pts, dse.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		cycles[i] = r.Cycles
	}
	ref, err := plan.Exhaustive(cycles, microOps)
	if err != nil {
		t.Fatal(err)
	}
	return ref, cycles
}

func mustEvent(t *testing.T, name string) stacks.Event {
	t.Helper()
	ev, err := stacks.ParseEvent(name)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func searchBody(search, extra string) string {
	return testBody(fmt.Sprintf(`,"search":%q%s`, search, extra))
}

// matchSearchJob asserts a done search job's result equals the exhaustive
// reference: the verified optimum (or the full frontier) point for point.
func matchSearchJob(t *testing.T, label string, v jobView, ref *dse.SearchResult) {
	t.Helper()
	if v.Status != JobDone {
		t.Fatalf("%s: status %s (error %q), want done", label, v.Status, v.Error)
	}
	res := v.Result
	if res == nil || res.Search == nil {
		t.Fatalf("%s: done without a search summary", label)
	}
	if !res.Search.Converged {
		t.Fatalf("%s: search did not converge", label)
	}
	if !res.Search.Verified {
		t.Fatalf("%s: search optima were not oracle-verified", label)
	}
	if res.Search.Mode != ref.Mode {
		t.Fatalf("%s: mode %s, want %s", label, res.Search.Mode, ref.Mode)
	}
	if uint64(res.Search.GridPoints) != ref.GridPoints {
		t.Fatalf("%s: grid %d, want %d", label, res.Search.GridPoints, ref.GridPoints)
	}
	if res.Search.Probes > res.Search.GridPoints {
		t.Fatalf("%s: %d probes exceed the grid", label, res.Search.Probes)
	}
	var want []dse.SearchPoint
	if ref.Best != nil {
		want = append(want, *ref.Best)
	}
	want = append(want, ref.Frontier...)
	if len(res.Points) != len(want) {
		t.Fatalf("%s: returned %d points, want %d", label, len(res.Points), len(want))
	}
	for k, got := range res.Points {
		if got.Cycles != want[k].Cycles || got.Cost != want[k].Cost {
			t.Fatalf("%s point %d: (cycles %g, cost %g), want (%g, %g)",
				label, k, got.Cycles, got.Cost, want[k].Cycles, want[k].Cost)
		}
	}
}

// TestSearchJobEndToEnd runs all three guided-search modes as jobs against
// a live server and matches each answer against the independent exhaustive
// reference, then checks the searches landed on /metrics.
func TestSearchJobEndToEnd(t *testing.T) {
	cfg, a, microOps := searchSetup(t)
	s := New(Config{Workers: 2, QueueDepth: 8, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A rounding-safe target budget: midway between two distinct exhaustive
	// cycle counts.
	_, cycles := searchReference(t, cfg, dse.RpStacksEngine(a), microOps, &dse.SearchSpec{Mode: dse.SearchHalving})
	uniq := append([]float64(nil), cycles...)
	sort.Float64s(uniq)
	budget := uniq[len(uniq)-1] + 1
	for i := 1; i < len(uniq); i++ {
		if uniq[i] != uniq[i-1] {
			budget = (uniq[i] + uniq[i-1]) / 2
			break
		}
	}
	specs := []*dse.SearchSpec{
		{Mode: dse.SearchHalving},
		{Mode: dse.SearchPareto, Cost: []dse.CostWeight{{Event: mustEvent(t, "L2D"), Weight: 2}}},
		{Mode: dse.SearchTarget, TargetCPI: budget / float64(microOps)},
	}
	for _, spec := range specs {
		ref, _ := searchReference(t, cfg, dse.RpStacksEngine(a), microOps, spec)
		v, code := submitJob(t, ts.URL, searchBody(spec.String(), ""))
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d, want 202", spec, code)
		}
		matchSearchJob(t, spec.String(), pollJob(t, ts.URL, v.ID), ref)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	for _, mode := range searchModes {
		if v := metricValue(t, exp, fmt.Sprintf("rpstacks_search_probes_total{mode=%q}", mode)); v < 2 {
			t.Errorf("search probes for %s = %g, want at least the root box's corners", mode, v)
		}
		if v := metricValue(t, exp, fmt.Sprintf("rpstacks_search_rounds_total{mode=%q}", mode)); v < 1 {
			t.Errorf("search rounds for %s = %g, want at least 1", mode, v)
		}
	}
	if v := metricValue(t, exp, "rpstacks_search_frontier_size_count"); v != 1 {
		t.Errorf("frontier sizes observed = %g, want 1", v)
	}
}

// TestSearchJobHugeGrid proves the tentpole's service claim: a design space
// far beyond MaxGridPoints is rejected as an exhaustive sweep but accepted
// and solved by a search job, probing a tiny fraction of the grid.
func TestSearchJobHugeGrid(t *testing.T) {
	axes := `"axes":["L1D=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",` +
		`"L2D=6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36",` +
		`"MemD=100,110,120,130,140,150,160,170,180,190,200,210,220,230,240,250",` +
		`"FpAdd=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",` +
		`"FpMul=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",` +
		`"IntAlu=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"]`
	body := func(extra string) string {
		return fmt.Sprintf(`{"workload":%q,%s,"engine":"rpstacks","micro_ops":%d,"timeout_ms":120000%s}`,
			testWorkload, axes, testMicroOps, extra)
	}
	s := New(Config{Workers: 1, QueueDepth: 4, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, code := submitJob(t, ts.URL, body("")); code != http.StatusBadRequest {
		t.Fatalf("16.7M-point exhaustive sweep accepted with status %d, want 400", code)
	}
	v, code := submitJob(t, ts.URL, body(`,"search":"halving"`))
	if code != http.StatusAccepted {
		t.Fatalf("search over the same grid: status %d, want 202", code)
	}
	done := pollJob(t, ts.URL, v.ID)
	if done.Status != JobDone {
		t.Fatalf("status %s (error %q), want done", done.Status, done.Error)
	}
	sum := done.Result.Search
	if sum == nil || !sum.Converged || !sum.Verified {
		t.Fatalf("huge-grid search summary %+v", sum)
	}
	if sum.GridPoints != 1<<24 {
		t.Fatalf("grid %d, want 2^24", sum.GridPoints)
	}
	if sum.Probes > 4096 {
		t.Fatalf("probed %d points of 2^24; the lazy search is supposed to be sublinear", sum.Probes)
	}
	if len(done.Result.Points) != 1 {
		t.Fatalf("returned %d points, want the single optimum", len(done.Result.Points))
	}
}

// TestSearchJobFleetServed routes a graph search job's probe rounds through
// the sweep fleet: every round becomes one distributed chunk-leased sweep,
// and the final answer must equal the local exhaustive reference exactly.
func TestSearchJobFleetServed(t *testing.T) {
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

	cfg, tr := referenceTrace(t)
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	spec := &dse.SearchSpec{Mode: dse.SearchPareto}
	ref, _ := searchReference(t, cfg, dse.GraphEngine(g), len(tr.Records), spec)
	v, code := submitJob(t, ts.URL, engineBody("graph", fmt.Sprintf(`,"search":%q`, spec.String())))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	matchSearchJob(t, "fleet-served "+spec.String(), pollJob(t, ts.URL, v.ID), ref)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	if v := metricValue(t, exp, `rpstacks_fleet_chunks_completed_total{result="first"}`); v < 1 {
		t.Errorf("fleet completions = %g; search rounds were not fleet-served", v)
	}
}

// TestParseJobRequestSearch pins the search-specific validation surface.
func TestParseJobRequestSearch(t *testing.T) {
	lim := DefaultLimits()
	body := func(fields string) []byte {
		return []byte(fmt.Sprintf(`{"workload":"429.mcf","axes":["L1D=1,2","L2D=6,12"]%s}`, fields))
	}
	rejects := []struct{ fields, frag string }{
		{`,"search":"gradient"`, "unknown search mode"},
		{`,"search":"halving","audit_fraction":0.5`, "verified online"},
		{`,"search":"target"`, "needs a cpi budget"},
		{`,"search":"halving","target_cpi":0.5`, "meaningless"},
		{`,"search":"halving;cost=MemD:2"`, "does not match any axis"},
	}
	for _, c := range rejects {
		_, err := ParseJobRequest(body(c.fields), lim)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseJobRequest(%s) = %v, want error containing %q", c.fields, err, c.frag)
		}
	}

	spec, err := ParseJobRequest(body(`,"search":"target","target_cpi":0.8`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Search == nil || spec.Search.TargetCPI != 0.8 {
		t.Fatalf("target search did not borrow target_cpi: %+v", spec.Search)
	}

	// 8 axes × 64 values: 2^48 points, accepted only with a search mode.
	vals := make([]string, 64)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	events := []string{"L1D", "L2D", "MemD", "FpAdd", "FpMul", "IntAlu", "IntMul", "Branch"}
	quoted := make([]string, len(events))
	for i, e := range events {
		quoted[i] = fmt.Sprintf("%q", e+"="+strings.Join(vals, ","))
	}
	huge := func(fields string) []byte {
		return []byte(fmt.Sprintf(`{"workload":"429.mcf","axes":[%s]%s}`, strings.Join(quoted, ","), fields))
	}
	if _, err := ParseJobRequest(huge(""), lim); err == nil || !strings.Contains(err.Error(), "search mode") {
		t.Errorf("2^48-point sweep: %v, want a rejection pointing at search modes", err)
	}
	spec, err = ParseJobRequest(huge(`,"search":"pareto"`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Search == nil || spec.GridSize != 1<<48 {
		t.Fatalf("2^48-point search: GridSize %d, search %+v", spec.GridSize, spec.Search)
	}
	_ = math.MaxInt
	_ = json.Valid
}
