// Package prom is the system's shared, hand-rolled Prometheus layer: typed
// counters, gauges and fixed-bucket histograms registered in a Registry that
// renders the text exposition format (version 0.0.4). It generalizes the
// metric types that grew up inside internal/serve so every subsystem —
// service, cache tiers, durable store, sweep engines — reports through one
// registry with validated names, without pulling in a client library.
//
// Two registration styles cover every consumer:
//   - owned metrics (Counter/Gauge/Histogram and their label Vec forms):
//     the subsystem holds the handle and updates it on its own hot path;
//   - pull families (Collect): subsystems that already keep their own
//     atomic counters (cache.Tiered, store.Store) render them at scrape
//     time through a callback, so no double accounting is introduced.
//
// Histograms support exemplar-style annotations: ObserveExemplar retains
// the labels of the largest observation seen and WriteText renders it as a
// comment line after the histogram — how the service attaches the job and
// trace identity of its slowest sweep to /metrics without leaving the text
// format.
package prom

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the accepted metric-name shape. The repo's convention layers a
// prefix on top: every metric this system exports is rpstacks_*, which the
// serve round-trip test asserts against the live /metrics endpoint.
var nameRE = regexp.MustCompile(`^[a-z]([a-z0-9_]*[a-z0-9])?$`)

// fmtFloat renders a float the way Prometheus expects.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Counter is a monotonically non-decreasing float counter safe for
// concurrent use.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative (negative deltas are dropped: a
// counter never goes down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(c.Value()))
}

// Gauge is a settable float gauge safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(g.Value()))
}

// Histogram is a fixed-bucket cumulative histogram safe for concurrent
// observation.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last bucket is +Inf
	sum    Counter
	total  atomic.Uint64

	exMu    sync.Mutex
	exValue float64
	exLabel string
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("prom: histogram bounds not strictly increasing at %g", bounds[i]))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// ObserveExemplar records one value and, when it is the largest seen so far,
// retains exemplar (a rendered label list such as `job_id="job-000003"`) as
// the histogram's exemplar comment — the trace identity of the slowest
// observation.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	h.Observe(v)
	h.exMu.Lock()
	if v >= h.exValue {
		h.exValue, h.exLabel = v, exemplar
	}
	h.exMu.Unlock()
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	// The bucket label list needs le appended inside the braces.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, open, fmtFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(h.sum.Value()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total.Load())
	h.exMu.Lock()
	ex, exv := h.exLabel, h.exValue
	h.exMu.Unlock()
	if ex != "" {
		fmt.Fprintf(w, "# exemplar %s%s {%s} %s\n", name, labels, ex, fmtFloat(exv))
	}
}

// metric is anything a family row can render.
type metric interface {
	write(w io.Writer, name, labels string)
}

// family is one metric name: HELP/TYPE plus its rows (one per label set).
type family struct {
	name, help, typ string
	labelNames      []string
	buckets         []float64

	mu      sync.Mutex
	order   []string
	rows    map[string]metric
	collect func(emit func(labels string, v float64))
}

// row returns (creating on first use) the metric under the rendered label
// string.
func (f *family) row(labels string, make func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.rows[labels]; ok {
		return m
	}
	m := make()
	f.rows[labels] = m
	f.order = append(f.order, labels)
	return m
}

// renderLabels builds `{k1="v1",k2="v2"}` from the family's label names and
// the given values. Panics on arity mismatch — a programming error.
func (f *family) renderLabels(values []string) string {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("prom: metric %s wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range f.labelNames {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// CounterVec is a labeled Counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.row(v.f.renderLabels(values), func() metric { return &Counter{} }).(*Counter)
}

// GaugeVec is a labeled Gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.row(v.f.renderLabels(values), func() metric { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a labeled Histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	buckets := v.f.buckets
	return v.f.row(v.f.renderLabels(values), func() metric { return newHistogram(buckets) }).(*Histogram)
}

// Registry holds metric families and renders them in registration order.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// register validates and installs one family. Invalid or duplicate names
// panic: both are wiring bugs, not runtime conditions.
func (r *Registry) register(name, help, typ string, labelNames []string, buckets []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("prom: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("prom: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("prom: duplicate metric name %q", name))
	}
	r.byName[name] = true
	f := &family{name: name, help: help, typ: typ, labelNames: labelNames, buckets: buckets, rows: make(map[string]metric)}
	r.fams = append(r.fams, f)
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	return f.row("", func() metric { return &Counter{} }).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labelNames, nil)}
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return f.row("", func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labelNames, nil)}
}

// Histogram registers and returns an unlabeled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, buckets)
	return f.row("", func() metric { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec registers a labeled histogram family; every row shares the
// bucket bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labelNames, buckets)}
}

// Collect registers a pull-style family of the given type ("counter" or
// "gauge"): at render time, collect is called with an emitter taking a
// pre-rendered label string (“ or `{cache="artifacts"}`) and the sample
// value. Subsystems that already keep their own counters (cache tiers, the
// durable store) export through this without double accounting.
func (r *Registry) Collect(name, help, typ string, collect func(emit func(labels string, v float64))) {
	f := r.register(name, help, typ, nil, nil)
	f.collect = collect
}

// WriteText renders the full exposition in registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			f.collect(func(labels string, v float64) {
				fmt.Fprintf(w, "%s%s %s\n", f.name, labels, fmtFloat(v))
			})
			continue
		}
		f.mu.Lock()
		order := make([]string, len(f.order))
		copy(order, f.order)
		f.mu.Unlock()
		for _, labels := range order {
			f.mu.Lock()
			m := f.rows[labels]
			f.mu.Unlock()
			m.write(w, f.name, labels)
		}
	}
}
