package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
)

// obs_test.go — the observability acceptance layer: a round-trip of the
// Prometheus exposition through a test-side parser, and the per-job flight
// recorder endpoint.

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var labelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// parseExposition parses Prometheus text format back into samples, plus the
// family → type declarations.
func parseExposition(t *testing.T, exp string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := make(map[string]string)
	for _, line := range strings.Split(exp, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		id, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %q: bad value: %v", line, err)
		}
		s := promSample{labels: make(map[string]string), value: v}
		if b := strings.IndexByte(id, '{'); b >= 0 {
			if !strings.HasSuffix(id, "}") {
				t.Fatalf("line %q: unterminated label set", line)
			}
			s.name = id[:b]
			for _, m := range labelRE.FindAllStringSubmatch(id[b+1:len(id)-1], -1) {
				s.labels[m[1]] = m[2]
			}
		} else {
			s.name = id
		}
		samples = append(samples, s)
	}
	return samples, types
}

// labelKey renders a sample's labels minus `le`, as a histogram series key.
func labelKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.labels[k])
	}
	return b.String()
}

// TestMetricsRoundTrip scrapes /metrics after real traffic and re-parses the
// exposition: every sample name must match ^rpstacks_[a-z0-9_]+$ (the
// rpserved_* names are gone), every family must carry a TYPE declaration,
// and every histogram's buckets must be cumulative-monotone with the +Inf
// bucket equal to its _count.
func TestMetricsRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, SweepParallelism: 2, Store: st})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, v.ID)
	// An invalid submission exercises the 400 counter too.
	if _, code := submitJob(t, ts.URL, `{"workload":"no-such"}`); code != http.StatusBadRequest {
		t.Fatalf("invalid submit status %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp := readAll(t, resp)
	samples, types := parseExposition(t, exp)
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}

	nameRE := regexp.MustCompile(`^rpstacks_[a-z0-9_]+$`)
	buckets := make(map[string][]promSample)
	counts := make(map[string]float64)
	for _, s := range samples {
		if !nameRE.MatchString(s.name) {
			t.Errorf("metric name %q does not match ^rpstacks_[a-z0-9_]+$", s.name)
		}
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(s.name, suffix); fam != s.name && types[fam] == "histogram" {
				base = fam
			}
		}
		if types[base] == "" {
			t.Errorf("sample %s has no # TYPE declaration", s.name)
		}
		if strings.HasSuffix(s.name, "_bucket") {
			buckets[labelKey(s)] = append(buckets[labelKey(s)], s)
		}
		if strings.HasSuffix(s.name, "_count") {
			counts[labelKey(s)] = s.value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for series, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return parseLE(t, bs[i]) < parseLE(t, bs[j]) })
		prev := -1.0
		for _, b := range bs {
			if b.value < prev {
				t.Errorf("%s: bucket le=%q count %g < previous %g (not cumulative)", series, b.labels["le"], b.value, prev)
			}
			prev = b.value
		}
		last := bs[len(bs)-1]
		if le := parseLE(t, last); !math.IsInf(le, 1) {
			t.Errorf("%s: last bucket le=%q, want +Inf", series, last.labels["le"])
		}
		countKey := strings.Replace(series, "_bucket", "_count", 1)
		if c, ok := counts[countKey]; !ok || c != last.value {
			t.Errorf("%s: +Inf bucket %g != _count %g", series, last.value, c)
		}
	}

	// The store collectors must be present when a store is configured.
	if v := metricValue(t, exp, "rpstacks_store_entries"); v < 1 {
		t.Errorf("store entries = %g, want >= 1 after a job published artifacts", v)
	}
	if v := metricValue(t, exp, "rpstacks_requests_invalid_total"); v != 1 {
		t.Errorf("invalid requests = %g, want 1", v)
	}
	// The span-derived stage histogram saw the job's lifecycle.
	for _, stage := range stageNames {
		key := `rpstacks_stage_duration_seconds_count{stage="` + stage + `"}`
		if v := metricValue(t, exp, key); v < 1 {
			t.Errorf("stage %s observed %g times, want >= 1", stage, v)
		}
	}
	// The sweep histogram carries the exemplar comment with the job identity.
	if !strings.Contains(exp, `# exemplar rpstacks_sweep_duration_seconds{engine="rpstacks"} {job_id=`) {
		t.Error("exposition missing the slow-sweep exemplar comment")
	}

	// The build-info gauge renders exactly once, value 1, with every label
	// populated (unstamped fields fall back to "unknown", never "").
	infos := 0
	for _, smp := range samples {
		if smp.name != "rpstacks_build_info" {
			continue
		}
		infos++
		if smp.value != 1 {
			t.Errorf("rpstacks_build_info value %g, want 1", smp.value)
		}
		for _, lbl := range []string{"go_version", "version", "revision", "vcs_time"} {
			if smp.labels[lbl] == "" {
				t.Errorf("rpstacks_build_info label %s is empty", lbl)
			}
		}
	}
	if infos != 1 {
		t.Errorf("rpstacks_build_info rendered %d times, want exactly 1", infos)
	}

	// The audit families render from the first scrape — all-zero here, since
	// the job was not audited — with every class and outcome row pre-created.
	for _, class := range []string{"icache", "dcache", "branch", "resource"} {
		key := `rpstacks_audit_divergence_pct_count{class="` + class + `"}`
		if v := metricValue(t, exp, key); v != 0 {
			t.Errorf("unaudited run has %s = %g, want 0", key, v)
		}
	}
	for _, sample := range []string{
		`rpstacks_audit_points_total{outcome="audited"}`,
		`rpstacks_audit_points_total{outcome="skipped_budget"}`,
		"rpstacks_audit_drift_total",
		"rpstacks_audit_error_pct_count",
	} {
		if v := metricValue(t, exp, sample); v != 0 {
			t.Errorf("unaudited run has %s = %g, want 0", sample, v)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func parseLE(t *testing.T, s promSample) float64 {
	t.Helper()
	le := s.labels["le"]
	if le == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bucket %v: bad le: %v", s, err)
	}
	return v
}

// TestDebugTraceEndpoint checks the per-job flight recorder: the Chrome
// export must parse and contain the lifecycle spans (job root, queue-wait,
// setup, sweep, chunks, rank, cache lookups), and the folded format must
// render.
func TestDebugTraceEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	pollJob(t, ts.URL, v.ID)

	resp, err := http.Get(ts.URL + "/debug/trace?job=" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, raw)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Dur  float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(raw), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := make(map[string]int)
	for _, ev := range parsed.TraceEvents {
		seen[ev.Cat+":"+ev.Name]++
	}
	for _, want := range []string{"job:job", "job:queue-wait", "job:setup", "dse:sweep", "dse:chunk", "job:rank", "cache:build"} {
		if seen[want] == 0 {
			t.Errorf("trace lacks %s span (saw %v)", want, seen)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/trace?job=" + v.ID + "&format=folded")
	if err != nil {
		t.Fatal(err)
	}
	folded := readAll(t, resp)
	for _, path := range []string{"job:job;dse:sweep", "job:job;job:rank"} {
		if !strings.Contains(folded, path) {
			t.Errorf("folded trace lacks nested path %s:\n%s", path, folded)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/trace?job=nope")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status %d, want 404", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
