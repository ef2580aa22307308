package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/store"
)

// getJSON fetches a URL and decodes its JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestReadyzTransitions drives the readiness probe through its three states:
// ready on an idle server, shedding (503) while the queue is full, ready
// again once the queue drains, and draining (503) after shutdown — while
// /healthz stays 200 throughout.
func TestReadyzTransitions(t *testing.T) {
	entered := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.beforeJob = func(j *Job) {
		entered <- j.ID
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var rd struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK || rd.Status != "ready" {
		t.Fatalf("idle readyz: %d %q, want 200 ready", code, rd.Status)
	}

	// Hold the single worker mid-job and park a second job on the depth-1
	// queue: the server is now shedding submissions.
	if _, code := submitJob(t, ts.URL, testBody("")); code != http.StatusAccepted {
		t.Fatalf("job 1 status %d, want 202", code)
	}
	<-entered
	if _, code := submitJob(t, ts.URL, testBody("")); code != http.StatusAccepted {
		t.Fatalf("job 2 status %d, want 202", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusServiceUnavailable || rd.Status != "shedding" {
		t.Fatalf("full-queue readyz: %d %q, want 503 shedding", code, rd.Status)
	}
	// Liveness is unaffected by load.
	var hz struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz while shedding: %d, want 200", code)
	}

	close(release)
	<-entered // job 2 claimed: the queue has drained
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK || rd.Status != "ready" {
		t.Fatalf("drained readyz: %d %q, want 200 ready", code, rd.Status)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusServiceUnavailable || rd.Status != "draining" {
		t.Fatalf("post-shutdown readyz: %d %q, want 503 draining", code, rd.Status)
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("post-shutdown healthz: %d, want 200 (liveness outlives readiness)", code)
	}
}

// TestAuditedJobEndToEnd is the tentpole's service acceptance test: an
// audited job produces the same ranked predictions as an unaudited one, its
// audit report is served by /debug/audit, the audit metric families move,
// and — because a durable store is mounted — the report survives a service
// restart inside the job's journal record, with no store entry of its own.
func TestAuditedJobEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, SweepParallelism: 2, Store: st})
	ts := httptest.NewServer(s)

	plain, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("unaudited submit status %d", code)
	}
	audited, code := submitJob(t, ts.URL, testBody(`,"audit_fraction":1,"audit_seed":11,"audit_drift_pct":100`))
	if code != http.StatusAccepted {
		t.Fatalf("audited submit status %d", code)
	}

	pv := pollJob(t, ts.URL, plain.ID)
	av := pollJob(t, ts.URL, audited.ID)
	if pv.Status != JobDone || av.Status != JobDone {
		t.Fatalf("statuses %s/%s (errors %q/%q), want done", pv.Status, av.Status, pv.Error, av.Error)
	}
	if pv.AuditStatus != "" {
		t.Errorf("unaudited job carries audit_status %q", pv.AuditStatus)
	}
	if av.AuditStatus != "ok" {
		t.Errorf("audited job audit_status %q, want ok (threshold 100%%)", av.AuditStatus)
	}
	// The shadow audit must not perturb the predictions: both jobs return
	// identical ranked points.
	if got, want := pointsJSON(t, av.Result), pointsJSON(t, pv.Result); got != want {
		t.Fatalf("audited job's points differ from unaudited:\naudited:   %s\nunaudited: %s", got, want)
	}

	var rep audit.Report
	if code := getJSON(t, ts.URL+"/debug/audit?job="+audited.ID, &rep); code != http.StatusOK {
		t.Fatalf("/debug/audit status %d, want 200", code)
	}
	grid := av.Result.GridPoints
	if rep.GridPoints != grid || rep.Sampled != grid || rep.Audited != grid || rep.Skipped != 0 {
		t.Fatalf("report grid/sampled/audited/skipped = %d/%d/%d/%d, want %d/%d/%d/0",
			rep.GridPoints, rep.Sampled, rep.Audited, rep.Skipped, grid, grid, grid)
	}
	if rep.Status != "ok" || rep.Method != "rpstacks" || rep.Seed != 11 {
		t.Errorf("report status %q method %q seed %d, want ok rpstacks 11", rep.Status, rep.Method, rep.Seed)
	}
	if rep.Fingerprint == "" || len(rep.Indices) != grid || len(rep.Worst) == 0 {
		t.Errorf("report missing fingerprint/indices/worst: %q %d %d",
			rep.Fingerprint, len(rep.Indices), len(rep.Worst))
	}
	// RpStacks predictions against re-simulated ground truth carry a real,
	// small residual — nonzero but nowhere near the 100% drift threshold.
	if rep.MaxErrorPct <= 0 || rep.MaxErrorPct >= 50 {
		t.Errorf("max error %g%%, want small nonzero model residual", rep.MaxErrorPct)
	}

	// The unaudited job answers 404 with a hint.
	if code := getJSON(t, ts.URL+"/debug/audit?job="+plain.ID, nil); code != http.StatusNotFound {
		t.Errorf("/debug/audit for unaudited job: %d, want 404", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	if v := metricValue(t, exp, `rpstacks_audit_points_total{outcome="audited"}`); v != float64(grid) {
		t.Errorf("audited points counter = %g, want %d", v, grid)
	}
	if v := metricValue(t, exp, "rpstacks_audit_error_pct_count"); v != float64(grid) {
		t.Errorf("error histogram count = %g, want %d", v, grid)
	}
	if v := metricValue(t, exp, "rpstacks_audit_drift_total"); v != 0 {
		t.Errorf("drift counter = %g, want 0 under a 100%% threshold", v)
	}
	for _, class := range audit.ClassNames() {
		key := fmt.Sprintf("rpstacks_audit_divergence_pct_count{class=%q}", class)
		if v := metricValue(t, exp, key); v != float64(grid) {
			t.Errorf("%s = %g, want %d", key, v, grid)
		}
	}
	if !strings.Contains(exp, `# exemplar rpstacks_audit_error_pct {job_id=`) {
		t.Error("exposition missing the worst-point audit exemplar")
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()
	for _, id := range []string{plain.ID, audited.ID} {
		if _, _, ok := st.Get("audit|" + id); ok {
			t.Errorf("the store holds a separate audit|%s entry", id)
		}
	}

	// A fresh service lifetime over the same store directory: the job table
	// is empty, but the persisted report still serves.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	var rep2 audit.Report
	if code := getJSON(t, ts2.URL+"/debug/audit?job="+audited.ID, &rep2); code != http.StatusOK {
		t.Fatalf("restarted /debug/audit status %d, want 200", code)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(rep2)
	if string(a) != string(b) {
		t.Fatalf("audit report changed across restart:\nbefore: %s\nafter:  %s", a, b)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAuditDriftFlagsJob submits a job with a near-zero drift threshold: the
// genuine model residual of RpStacks against re-simulation exceeds it, so
// the audit must flag drift — on the job view, in the report and on the
// drift counter — while the job itself still succeeds.
func TestAuditDriftFlagsJob(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(`,"audit_fraction":1,"audit_drift_pct":1e-9`))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v = pollJob(t, ts.URL, v.ID)
	if v.Status != JobDone {
		t.Fatalf("status %s (error %q), want done — drift must not fail the job", v.Status, v.Error)
	}
	if v.AuditStatus != "drift" {
		t.Fatalf("audit_status %q, want drift", v.AuditStatus)
	}

	var rep audit.Report
	if code := getJSON(t, ts.URL+"/debug/audit?job="+v.ID, &rep); code != http.StatusOK {
		t.Fatalf("/debug/audit status %d", code)
	}
	if rep.Status != "drift" || rep.Drifted == 0 {
		t.Fatalf("report status %q drifted %d, want drift and > 0", rep.Status, rep.Drifted)
	}
	if len(rep.Worst) == 0 || rep.Worst[0].WorstClass == "" {
		t.Error("drifting report does not name a responsible class")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	if got := metricValue(t, exp, "rpstacks_audit_drift_total"); got != float64(rep.Drifted) {
		t.Errorf("drift counter = %g, want %d", got, rep.Drifted)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAuditRequestValidation covers the audit-specific 400 paths.
func TestAuditRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		testBody(`,"audit_fraction":1.5`),                    // out of range
		testBody(`,"audit_fraction":-0.1`),                   // out of range
		testBody(`,"audit_seed":3`),                          // seed without fraction
		testBody(`,"audit_drift_pct":5`),                     // threshold without fraction
		testBody(`,"audit_fraction":1,"audit_drift_pct":-1`), // negative threshold
		// The sim engine is its own ground truth.
		strings.Replace(testBody(`,"audit_fraction":0.5`), `"engine":"rpstacks"`, `"engine":"sim"`, 1),
	} {
		if _, code := submitJob(t, ts.URL, body); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}
	// A graph-engine audit is legal.
	body := strings.Replace(testBody(`,"audit_fraction":0.25`), `"engine":"rpstacks"`, `"engine":"graph"`, 1)
	v, code := submitJob(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("graph audit submit status %d, want 202", code)
	}
	if got := pollJob(t, ts.URL, v.ID); got.Status != JobDone || got.AuditStatus != "ok" {
		t.Fatalf("graph audit job: status %s audit %q (error %q)", got.Status, got.AuditStatus, got.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
