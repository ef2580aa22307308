package serve

import (
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"repro/internal/audit"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/serve/cache"
)

// metrics.go — the service's observability surface, built on the shared
// obs/prom registry. Counters the request path owns are updated in place;
// queue, cache and store state is pulled at scrape time from its owners so
// nothing is double-accounted. All metric names carry the rpstacks_ prefix
// (renamed from the pre-registry rpserved_ names — a breaking change for
// scrapers, noted in DESIGN.md §8).

// sweepBuckets are the per-engine sweep-latency histogram bounds in
// seconds. RpStacks sweeps land in the sub-millisecond buckets, graph
// reconstruction in the middle, and per-point re-simulation at the top —
// the spread is the paper's Figure 2b as an operational signal.
var sweepBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// stageBuckets cover the job lifecycle stages, which range from microsecond
// queue waits to multi-second cold setups.
var stageBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

// jobStatuses are the terminal states the jobs_total counter is labelled
// with, in render order.
var jobStatuses = []JobStatus{JobDone, JobFailed, JobTimeout, JobCanceled}

// stageNames are the span-derived lifecycle stages exported as a histogram,
// in render order.
var stageNames = []string{"queue-wait", "setup", "chunk-evaluate", "rank"}

// auditErrBuckets are the per-point audit CPI-error histogram bounds in
// percent: the paper's headline accuracy lands around 1%, so the low buckets
// resolve healthy operation and the high ones resolve drift.
var auditErrBuckets = []float64{0.01, 0.1, 0.5, 1, 2, 5, 10, 25, 100}

// auditOutcomes are the audit point-counter labels, in render order.
var auditOutcomes = []string{"audited", "skipped_budget"}

// searchModes are the guided-search mode labels, in render order.
var searchModes = []string{dse.SearchHalving, dse.SearchPareto, dse.SearchTarget}

// frontierBuckets bound the Pareto-frontier size histogram: a frontier is
// at most min(distinct cycle values, distinct cost values), small in
// practice even over huge grids.
var frontierBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// metrics holds the service's owned metric handles plus the registry that
// renders everything.
type metrics struct {
	reg       *prom.Registry
	submitted *prom.Counter
	rejected  *prom.Counter
	invalid   *prom.Counter
	inflight  *prom.Gauge
	finished  *prom.CounterVec
	sweeps    *prom.HistogramVec
	stages    *prom.HistogramVec

	auditErrors     *prom.Histogram
	auditDivergence *prom.HistogramVec
	auditPoints     *prom.CounterVec
	auditDrift      *prom.Counter

	searchProbes   *prom.CounterVec
	searchResumed  *prom.CounterVec
	searchRounds   *prom.CounterVec
	searchFrontier *prom.Histogram

	// slo is the latency-objective layer; nil unless Config.SLOTargets set
	// any. New wires it after newMetrics because it needs the server clock.
	slo *prom.SLO
}

func newMetrics() *metrics {
	reg := prom.NewRegistry()
	m := &metrics{
		reg:       reg,
		submitted: reg.Counter("rpstacks_jobs_submitted_total", "Jobs accepted onto the queue."),
		rejected:  reg.Counter("rpstacks_jobs_rejected_total", "Jobs shed with 429 because the queue was full."),
		invalid:   reg.Counter("rpstacks_requests_invalid_total", "Submissions rejected with 400."),
		finished:  reg.CounterVec("rpstacks_jobs_total", "Finished jobs by terminal status.", "status"),
		inflight:  reg.Gauge("rpstacks_jobs_inflight", "Jobs currently running on a worker."),
		sweeps: reg.HistogramVec("rpstacks_sweep_duration_seconds",
			"Per-engine design-space sweep wall-clock.", sweepBuckets, "engine"),
		stages: reg.HistogramVec("rpstacks_stage_duration_seconds",
			"Span-derived job lifecycle stage durations.", stageBuckets, "stage"),
		auditErrors: reg.Histogram("rpstacks_audit_error_pct",
			"Per-point shadow-audit CPI error, percent of ground truth.", auditErrBuckets),
		auditDivergence: reg.HistogramVec("rpstacks_audit_divergence_pct",
			"Per-point stall-stack divergence by penalty class, percent of ground-truth cycles.",
			auditErrBuckets, "class"),
		auditPoints: reg.CounterVec("rpstacks_audit_points_total",
			"Sampled audit points by outcome.", "outcome"),
		auditDrift: reg.Counter("rpstacks_audit_drift_total",
			"Audited points whose prediction error exceeded the drift threshold."),
		searchProbes: reg.CounterVec("rpstacks_search_probes_total",
			"Design points evaluated by guided searches, by mode.", "mode"),
		searchResumed: reg.CounterVec("rpstacks_search_resumed_probes_total",
			"Search probes restored from probe logs instead of re-evaluated, by mode.", "mode"),
		searchRounds: reg.CounterVec("rpstacks_search_rounds_total",
			"Probe rounds run by guided searches, by mode.", "mode"),
		searchFrontier: reg.Histogram("rpstacks_search_frontier_size",
			"Pareto-frontier sizes returned by pareto searches.", frontierBuckets),
	}
	// Pre-create every labelled row so the exposition is complete and its
	// order deterministic from the first scrape.
	for _, st := range jobStatuses {
		m.finished.With(string(st))
	}
	for _, engine := range engineNames {
		m.sweeps.With(engine)
	}
	for _, stage := range stageNames {
		m.stages.With(stage)
	}
	for _, class := range audit.ClassNames() {
		m.auditDivergence.With(class)
	}
	for _, outcome := range auditOutcomes {
		m.auditPoints.With(outcome)
	}
	for _, mode := range searchModes {
		m.searchProbes.With(mode)
		m.searchResumed.With(mode)
		m.searchRounds.With(mode)
	}
	registerBuildInfo(reg)
	return m
}

// registerBuildInfo exports the binary's identity as the conventional
// constant-1 info gauge, so dashboards can join error rates to the exact
// build that produced them. Fields the build left unstamped (no VCS in the
// test sandbox, a devel toolchain) render as "unknown" rather than vanishing.
func registerBuildInfo(reg *prom.Registry) {
	goVersion, version, revision, vcsTime := "unknown", "unknown", "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				revision = kv.Value
			case "vcs.time":
				vcsTime = kv.Value
			}
		}
	}
	reg.GaugeVec("rpstacks_build_info",
		"Build metadata of the serving binary; the value is always 1.",
		"go_version", "version", "revision", "vcs_time").
		With(goVersion, version, revision, vcsTime).Set(1)
}

// observeAuditPoint feeds one audited point into the accuracy families; it
// is the audit run's OnPoint hook. The exemplar carries the point's latency
// configuration plus the job and trace identity, so the worst observation
// names the design point that produced it.
func (m *metrics) observeAuditPoint(p audit.PointAudit, jobID, digest string) {
	m.auditErrors.ObserveExemplar(p.ErrorPct,
		fmt.Sprintf("job_id=%q,trace_digest=%q,config=%q", jobID, digest, p.Config()))
	for class, pct := range p.Divergence {
		m.auditDivergence.With(class).Observe(pct)
	}
	if p.Drift {
		m.auditDrift.Inc()
	}
	m.auditPoints.With("audited").Inc()
}

// observeSearch feeds one finished guided search into the search families.
func (m *metrics) observeSearch(res *dse.SearchResult) {
	m.searchProbes.With(res.Mode).Add(float64(res.Probes))
	m.searchResumed.With(res.Mode).Add(float64(res.ResumedProbes))
	m.searchRounds.With(res.Mode).Add(float64(res.Rounds))
	if res.Mode == dse.SearchPareto {
		m.searchFrontier.Observe(float64(len(res.Frontier)))
	}
}

func (m *metrics) jobFinished(st JobStatus) {
	m.finished.With(string(st)).Inc()
}

// observeSweep records one sweep's wall-clock; exemplar carries the job and
// trace identity that the slowest observation surfaces on /metrics.
func (m *metrics) observeSweep(engine string, wall time.Duration, exemplar string) {
	m.sweeps.With(engine).ObserveExemplar(wall.Seconds(), exemplar)
}

// observeSpan derives stage histograms from completed spans; it is every
// per-job tracer's WithOnEnd hook, so queue waits, setup phases, sweep
// chunks and rankings feed /metrics without separate bookkeeping at the call
// sites.
func (m *metrics) observeSpan(rec obs.Record) {
	switch {
	case rec.Cat == obs.CatJob && rec.Name == obs.NameQueueWait:
		m.stages.With("queue-wait").Observe(rec.Dur.Seconds())
	case rec.Cat == obs.CatJob && rec.Name == obs.NameSetup:
		m.stages.With("setup").Observe(rec.Dur.Seconds())
	case rec.Cat == obs.CatDSE && rec.Name == obs.NameChunk:
		m.stages.With("chunk-evaluate").Observe(rec.Dur.Seconds())
	case rec.Cat == obs.CatJob && rec.Name == obs.NameRank:
		m.stages.With("rank").Observe(rec.Dur.Seconds())
	}
}

// registerCollectors installs the pull-style families over state owned
// elsewhere: queue occupancy, both cache tiers and (when configured) the
// durable store. Called once from New, after those owners exist.
func (s *Server) registerCollectors() {
	reg := s.metrics.reg
	reg.Collect("rpstacks_queue_depth", "Jobs waiting on the queue.", "gauge",
		func(emit func(string, float64)) { emit("", float64(len(s.queue))) })
	reg.Collect("rpstacks_queue_capacity", "Bound of the job queue.", "gauge",
		func(emit func(string, float64)) { emit("", float64(cap(s.queue))) })

	caches := func(visit func(name string, st cache.TieredStats)) {
		visit("artifacts", s.analyses.Stats())
		visit("workloads", s.workloads.Stats())
	}
	label := func(name string) string { return fmt.Sprintf("{cache=%q}", name) }
	reg.Collect("rpstacks_cache_hits_total", "In-memory cache hits.", "counter",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) { emit(label(n), float64(st.Memory.Hits)) })
		})
	reg.Collect("rpstacks_cache_misses_total", "In-memory cache misses.", "counter",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) { emit(label(n), float64(st.Memory.Misses)) })
		})
	reg.Collect("rpstacks_cache_evictions_total", "In-memory cache evictions.", "counter",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) { emit(label(n), float64(st.Memory.Evictions)) })
		})
	reg.Collect("rpstacks_cache_entries", "Completed in-memory cache entries.", "gauge",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) { emit(label(n), float64(st.Memory.Entries)) })
		})
	reg.Collect("rpstacks_cache_disk_hits_total", "Lookups served from the durable tier.", "counter",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) { emit(label(n), float64(st.DiskHits)) })
		})
	reg.Collect("rpstacks_cache_codec_errors_total", "Codec failures at the durable-tier boundary.", "counter",
		func(emit func(string, float64)) {
			caches(func(n string, st cache.TieredStats) {
				emit(fmt.Sprintf("{cache=%q,kind=\"decode\"}", n), float64(st.DecodeErrors))
				emit(fmt.Sprintf("{cache=%q,kind=\"encode\"}", n), float64(st.EncodeErrors))
				emit(fmt.Sprintf("{cache=%q,kind=\"publish\"}", n), float64(st.PublishErrors))
			})
		})
	reg.Collect("rpstacks_setup_saved_seconds_total", "Setup time cache hits avoided re-paying.", "counter",
		func(emit func(string, float64)) {
			var saved time.Duration
			caches(func(_ string, st cache.TieredStats) { saved += st.Memory.SavedSetup })
			emit("", saved.Seconds())
		})

	if s.store == nil {
		return
	}
	storeGauges := []struct {
		name, help, typ string
		get             func() float64
	}{
		{"rpstacks_store_hits_total", "Durable-store reads served with a verified payload.", "counter",
			func() float64 { return float64(s.store.Stats().Hits) }},
		{"rpstacks_store_misses_total", "Durable-store reads for absent keys.", "counter",
			func() float64 { return float64(s.store.Stats().Misses) }},
		{"rpstacks_store_corruptions_total", "Store entries dropped as damaged: a failed frame check, a file too short to be an object, or a payload that would not decode.", "counter",
			func() float64 { return float64(s.store.Stats().Corruptions) }},
		{"rpstacks_store_evictions_total", "Entries evicted by the capacity GC.", "counter",
			func() float64 { return float64(s.store.Stats().Evictions) }},
		{"rpstacks_store_entries", "Entries currently published on disk.", "gauge",
			func() float64 { return float64(s.store.Stats().Entries) }},
		{"rpstacks_store_bytes", "Payload bytes currently published on disk.", "gauge",
			func() float64 { return float64(s.store.Stats().Bytes) }},
		{"rpstacks_store_setup_saved_seconds_total", "Build cost durable hits avoided re-paying, across restarts.", "counter",
			func() float64 { return s.store.Stats().SavedSetup.Seconds() }},
	}
	for _, g := range storeGauges {
		get := g.get
		reg.Collect(g.name, g.help, g.typ, func(emit func(string, float64)) { emit("", get()) })
	}
}

// writeMetrics renders the full exposition.
func (s *Server) writeMetrics(w io.Writer) {
	s.metrics.reg.WriteText(w)
}
