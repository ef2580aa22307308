package prom

import (
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rpstacks_jobs_total", "Jobs.")
	g := r.Gauge("rpstacks_queue_depth", "Depth.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // dropped: counters never decrease
	g.Set(4)
	g.Add(-1)

	out := render(r)
	for _, want := range []string{
		"# HELP rpstacks_jobs_total Jobs.\n",
		"# TYPE rpstacks_jobs_total counter\n",
		"rpstacks_jobs_total 3\n",
		"# TYPE rpstacks_queue_depth gauge\n",
		"rpstacks_queue_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecRowsRenderInInsertionOrder(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rpstacks_cache_hits_total", "Hits.", "cache")
	v.With("workloads").Inc()
	v.With("artifacts").Add(2)
	v.With("workloads").Inc()

	out := render(r)
	a := strings.Index(out, `rpstacks_cache_hits_total{cache="workloads"} 2`)
	b := strings.Index(out, `rpstacks_cache_hits_total{cache="artifacts"} 2`)
	if a < 0 || b < 0 || a > b {
		t.Errorf("vec rows wrong or out of insertion order:\n%s", out)
	}
}

func TestHistogramBucketsAndExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rpstacks_sweep_duration_seconds", "Sweep wall time.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.ObserveExemplar(5, `job_id="job-000007"`)
	h.Observe(0.5)

	out := render(r)
	for _, want := range []string{
		`rpstacks_sweep_duration_seconds_bucket{le="0.1"} 1`,
		`rpstacks_sweep_duration_seconds_bucket{le="1"} 3`,
		`rpstacks_sweep_duration_seconds_bucket{le="10"} 4`,
		`rpstacks_sweep_duration_seconds_bucket{le="+Inf"} 4`,
		"rpstacks_sweep_duration_seconds_sum 6.05",
		"rpstacks_sweep_duration_seconds_count 4",
		`# exemplar rpstacks_sweep_duration_seconds {job_id="job-000007"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecBucketLabelMerge(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("rpstacks_stage_seconds", "Stage time.", []float64{1}, "stage")
	v.With("setup").Observe(0.5)

	out := render(r)
	for _, want := range []string{
		`rpstacks_stage_seconds_bucket{stage="setup",le="1"} 1`,
		`rpstacks_stage_seconds_bucket{stage="setup",le="+Inf"} 1`,
		`rpstacks_stage_seconds_count{stage="setup"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCollectFamily(t *testing.T) {
	r := NewRegistry()
	hits := 7.0
	r.Collect("rpstacks_store_hits_total", "Store hits.", "counter", func(emit func(string, float64)) {
		emit("", hits)
	})
	out := render(r)
	if !strings.Contains(out, "rpstacks_store_hits_total 7\n") {
		t.Errorf("collect family missing:\n%s", out)
	}
	hits = 9
	if out = render(r); !strings.Contains(out, "rpstacks_store_hits_total 9\n") {
		t.Errorf("collect family not re-pulled:\n%s", out)
	}
}

func TestInvalidAndDuplicateNamesPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("rpstacks_ok_total", "ok")
	mustPanic("duplicate", func() { r.Counter("rpstacks_ok_total", "again") })
	mustPanic("uppercase", func() { r.Counter("Rpstacks_bad", "x") })
	mustPanic("leading digit", func() { r.Counter("9bad", "x") })
	mustPanic("trailing underscore", func() { r.Counter("bad_", "x") })
	mustPanic("bad label", func() { r.CounterVec("rpstacks_l_total", "x", "BadLabel") })
	mustPanic("label arity", func() {
		v := r.CounterVec("rpstacks_arity_total", "x", "a", "b")
		v.With("only-one")
	})
	mustPanic("unsorted buckets", func() { r.Histogram("rpstacks_h_seconds", "x", []float64{1, 1}) })
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rpstacks_c_total", "c")
	h := r.Histogram("rpstacks_h_seconds", "h", []float64{1, 10})
	v := r.CounterVec("rpstacks_v_total", "v", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 20))
				v.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter %v, want 8000", got)
	}
	if got := h.total.Load(); got != 8000 {
		t.Errorf("histogram count %d, want 8000", got)
	}
}
