package serve

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs/journal"
	"repro/internal/serve/cache"
)

// journal.go — the HTTP face of the job journal and the aggregate debug
// snapshot. GET /debug/jobs lists flight records (filter by status/engine/
// since, newest first, bounded), GET /debug/jobs/{id} serves one record with
// its retained event log, GET /debug/jobs/{id}/events streams the live
// lifecycle as Server-Sent Events (resumable via Last-Event-ID), and
// GET /debug/status is the one-page operational snapshot.

// handleDebugJobs lists journal records. Query parameters: status, engine,
// since (RFC 3339), limit.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	q := journal.Query{
		Status: r.URL.Query().Get("status"),
		Engine: r.URL.Query().Get("engine"),
	}
	if v := r.URL.Query().Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad since %q: %v (want RFC 3339)", v, err)
			return
		}
		q.Since = t
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			errJSON(w, http.StatusBadRequest, "bad limit %q (want a positive integer)", v)
			return
		}
		q.Limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.journal.List(q)})
}

// handleDebugJob serves one flight record, retained event log included —
// from memory while the job lives, from the durable store after a restart.
func (s *Server) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	id := r.PathValue("id")
	rec, ok := s.journal.Get(id)
	if !ok {
		errJSON(w, http.StatusNotFound, "no journal record for job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDebugJobEvents streams a job's lifecycle as Server-Sent Events:
// queued → running → progress → fleet → done, each frame carrying the
// journal's Event JSON as its data line and the monotonic sequence number as
// its SSE id. A reconnecting client sends Last-Event-ID (or ?after=N) and
// replays exactly what it missed — from the retained log, or from the
// persisted record after a restart. The stream ends after the terminal
// event, or when the client disconnects.
func (s *Server) handleDebugJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	id := r.PathValue("id")
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		after = n
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errJSON(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	sub, ok := s.journal.Subscribe(id, after)
	if !ok {
		errJSON(w, http.StatusNotFound, "no journal record for job %q", id)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// debugStatus is the aggregate snapshot GET /debug/status serves.
type debugStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	JobsRunning   int     `json:"jobs_running"`
	JobsSubmitted float64 `json:"jobs_submitted_total"`
	JobsRejected  float64 `json:"jobs_rejected_total"`

	CacheHitRates map[string]float64 `json:"cache_hit_rates"`

	StoreEntries int   `json:"store_entries,omitempty"`
	StoreBytes   int64 `json:"store_bytes,omitempty"`

	Fleet *fleetStatus `json:"fleet,omitempty"`

	AuditDrift float64 `json:"audit_drift_total"`

	Journal *journal.Stats `json:"journal,omitempty"`

	SLOBurn map[string]float64 `json:"slo_burn_rates,omitempty"`
}

type fleetStatus struct {
	WorkersLive  int      `json:"workers_live"`
	Workers      []string `json:"workers"`
	ActiveSweeps int      `json:"active_sweeps"`
	Leases       int      `json:"leases"`
}

// snapshotStatus gathers the debug snapshot from every subsystem's own
// stats surface — nothing here double-accounts a metric family.
func (s *Server) snapshotStatus() debugStatus {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	ds := debugStatus{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		JobsRunning:   int(s.metrics.inflight.Value()),
		JobsSubmitted: s.metrics.submitted.Value(),
		JobsRejected:  s.metrics.rejected.Value(),
		AuditDrift:    s.metrics.auditDrift.Value(),
		CacheHitRates: map[string]float64{
			"artifacts": hitRate(s.analyses.Stats()),
			"workloads": hitRate(s.workloads.Stats()),
		},
	}
	if s.store != nil {
		st := s.store.Stats()
		ds.StoreEntries = st.Entries
		ds.StoreBytes = st.Bytes
	}
	if s.fleet != nil {
		fs := s.fleet.Status()
		ds.Fleet = &fleetStatus{
			WorkersLive:  len(fs.Workers),
			Workers:      fs.Workers,
			ActiveSweeps: fs.ActiveSweeps,
			Leases:       fs.Leases,
		}
	}
	if s.journal != nil {
		js := s.journal.Stats()
		ds.Journal = &js
	}
	if s.metrics.slo != nil {
		ds.SLOBurn = make(map[string]float64, len(s.cfg.SLOTargets))
		for engine := range s.cfg.SLOTargets {
			ds.SLOBurn[engine] = s.metrics.slo.BurnRate(engine, 5*time.Minute)
		}
	}
	return ds
}

// hitRate is memory hits over lookups (tier hits count as hits too: a
// disk-served lookup avoided the build either way).
func hitRate(st cache.TieredStats) float64 {
	hits := float64(st.Memory.Hits + st.DiskHits)
	total := float64(st.Memory.Hits + st.Memory.Misses)
	if total == 0 {
		return 0
	}
	return hits / total
}

// handleDebugStatus serves the aggregate snapshot: JSON by default, a small
// human page with ?format=html.
func (s *Server) handleDebugStatus(w http.ResponseWriter, r *http.Request) {
	ds := s.snapshotStatus()
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, ds)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writeStatusHTML(w, ds)
	default:
		errJSON(w, http.StatusBadRequest, "unknown status format %q (want json or html)", r.URL.Query().Get("format"))
	}
}

// writeStatusHTML renders the snapshot as one key-value table per section —
// deliberately dependency-free and unstyled beyond legibility.
func writeStatusHTML(w http.ResponseWriter, ds debugStatus) {
	row := func(k string, v any) {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(k), html.EscapeString(fmt.Sprint(v)))
	}
	section := func(title string) {
		fmt.Fprintf(w, "<h2>%s</h2>\n<table border=\"1\" cellpadding=\"4\">\n", html.EscapeString(title))
	}
	end := func() { fmt.Fprint(w, "</table>\n") }

	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>rpserved status</title></head><body>\n")
	fmt.Fprintf(w, "<h1>rpserved: %s</h1>\n", html.EscapeString(ds.Status))

	section("Jobs")
	row("uptime", fmt.Sprintf("%.0fs", ds.UptimeSeconds))
	row("queue depth", fmt.Sprintf("%d / %d", ds.QueueDepth, ds.QueueCapacity))
	row("running", ds.JobsRunning)
	row("submitted", ds.JobsSubmitted)
	row("rejected", ds.JobsRejected)
	row("audit drift points", ds.AuditDrift)
	end()

	section("Caches")
	names := make([]string, 0, len(ds.CacheHitRates))
	for name := range ds.CacheHitRates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row(name+" hit rate", fmt.Sprintf("%.1f%%", 100*ds.CacheHitRates[name]))
	}
	if ds.StoreEntries > 0 || ds.StoreBytes > 0 {
		row("store entries", ds.StoreEntries)
		row("store bytes", ds.StoreBytes)
	}
	end()

	if ds.Fleet != nil {
		section("Fleet")
		row("workers live", ds.Fleet.WorkersLive)
		for _, wk := range ds.Fleet.Workers {
			row("worker", wk)
		}
		row("active sweeps", ds.Fleet.ActiveSweeps)
		row("leases", ds.Fleet.Leases)
		end()
	}

	if ds.Journal != nil {
		section("Journal")
		row("records in memory", ds.Journal.Records)
		row("records persisted", ds.Journal.Persisted)
		row("live subscribers", ds.Journal.Subscribers)
		row("events dropped", ds.Journal.Dropped)
		row("persist errors", ds.Journal.PersistErrors)
		end()
	}

	if len(ds.SLOBurn) > 0 {
		section("SLO burn (5m)")
		engines := make([]string, 0, len(ds.SLOBurn))
		for engine := range ds.SLOBurn {
			engines = append(engines, engine)
		}
		sort.Strings(engines)
		for _, engine := range engines {
			row(engine, fmt.Sprintf("%.2f", ds.SLOBurn[engine]))
		}
		end()
	}

	fmt.Fprint(w, "</body></html>\n")
}
