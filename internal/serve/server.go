// Package serve implements rpserved, the long-running design-space
// exploration service: HTTP job submission over the dse sweep engines with
// the one-time setup — simulate, then analyze or build the dependence graph,
// whichever the job's engine reads — amortized across requests through
// content-addressed caches.
//
// The paper's pitch is that one simulation answers thousands of design-point
// queries; a batch CLI still re-pays the simulation every invocation. The
// service pays it once per trace content: analyses are keyed by
// trace.Digest (SHA-256 of the canonical trace encoding) plus the analysis
// options and machine fingerprint, so any number of jobs over the same
// workload — concurrent or sequential — share one setup and then only
// re-weight representative stacks per design point.
//
// Robustness is part of the subsystem: the job queue is bounded and sheds
// load with 429 + Retry-After instead of accepting unbounded work, every
// job runs under its own deadline threaded into the sweep loop as a
// context (dse.ExploreOptions.Context), and Shutdown drains in-flight and
// queued jobs before returning. /metrics exports the counters in Prometheus
// text format.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/obs/prom"
	"repro/internal/serve/cache"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// submissions beyond it are shed with 429.
	QueueDepth int
	// Workers is the number of concurrent job executors.
	Workers int
	// SweepParallelism is the per-job sweep worker count used when a job
	// does not request its own.
	SweepParallelism int
	// CacheEntries bounds each memory cache: workload simulations, and per
	// trace digest the RpStacks analyses and the dependence graphs.
	CacheEntries int
	// Limits bounds individual requests; zero means DefaultLimits.
	Limits Limits
	// BaseConfig is the machine under exploration (nil: config.Baseline).
	BaseConfig *config.Config
	// AnalysisOpts are the RpStacks execution parameters (zero:
	// core.DefaultOptions).
	AnalysisOpts core.Options
	// Store, when non-nil, is the durable artifact tier: traces and analyses
	// are published to it and restarts of the service warm-start from it.
	// The caller owns opening (store.Open) and thereby chooses directory and
	// capacity bound. Nil runs memory-only, exactly the pre-store behavior.
	Store *store.Store
	// Logger receives the service's structured logs (job lifecycle, load
	// shedding, store trouble), each carrying job_id / trace_digest
	// attributes where one applies. Nil discards.
	Logger *slog.Logger
	// FleetStore, when non-nil, turns the server into a fleet coordinator:
	// it mounts the /fleet/v1/ chunk-lease protocol and delegates eligible
	// sweeps and searches (graph and sim jobs over a named workload on the
	// baseline machine) to rpworker processes publishing into this shared
	// blob root. Workers must open the same directory. RpStacks jobs and
	// uploaded traces always run in-process; nil keeps every job there.
	FleetStore *store.Shared
	// FleetLeaseTTL is the fleet lease heartbeat TTL (zero: 10s).
	FleetLeaseTTL time.Duration
	// FleetChunkSize is the points-per-lease granularity (zero: ~32 chunks
	// per sweep).
	FleetChunkSize int
	// JournalCapacity bounds the job journal's flight records, those
	// retained in memory and those persisted in Store alike (zero: 512;
	// negative disables the journal and its /debug/jobs endpoints
	// entirely).
	JournalCapacity int
	// JournalProgressInterval paces the journal's live progress events
	// (zero: 500ms; negative: one event per chunk — tests want every
	// observation).
	JournalProgressInterval time.Duration
	// SlowJobThreshold, when positive, logs one structured warning with the
	// per-stage breakdown for any job whose wall-clock exceeds it.
	SlowJobThreshold time.Duration
	// SLOTargets maps engine name to its latency objective; a finished job
	// is a good SLO event when it succeeded within its engine's threshold.
	// Empty disables the SLO layer.
	SLOTargets map[string]time.Duration
	// SLOObjective is the success-ratio objective shared by every target
	// (zero: 0.99).
	SLOObjective float64
	// Clock is the server's wall clock, injectable for tests (nil:
	// time.Now). It drives job timestamps, the journal, slow-job detection
	// and the SLO windows; span durations keep the tracer's own clock.
	Clock func() time.Time
}

const (
	// retainedJobs bounds the finished jobs kept for polling.
	retainedJobs = 1024
	// traceCapacity is the per-job flight-recorder ring size (span records
	// kept per job, oldest overwritten): enough for the lifecycle spans
	// plus hundreds of sweep chunks, small enough that the retained-job
	// bound keeps total trace memory modest.
	traceCapacity = 512
)

// Server is the exploration service. Create with New, expose as an
// http.Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	logger *slog.Logger

	metrics   *metrics
	store     *store.Store
	workloads *cache.Tiered[*workloadArtifacts]
	// analyses holds RpStacks analyses under digest|setupPrint, the
	// "artifacts" cache of /metrics; graphs holds dependence graphs by
	// trace digest, in memory only.
	analyses *cache.Tiered[*core.Analysis]
	graphs   *cache.Cache[*depgraph.Graph]

	// fleet is the sweep coordinator when Config.FleetStore is set;
	// fleetEligible gates delegation to servers on the baseline machine
	// workers rebuild under — any other machine would make every worker
	// refuse the sweep, so such servers keep sweeping locally.
	fleet         *fleet.Coordinator
	fleetEligible bool
	// fleetJobs maps an active fleet sweep ID (the hex fingerprint) to the
	// job that delegated it, so coordinator lease events land on the right
	// journal stream.
	fleetJobsMu sync.Mutex
	fleetJobs   map[string]string

	// journal is the per-job flight recorder of record — nil when disabled.
	journal *journal.Journal
	// now is Config.Clock (or time.Now); start anchors uptime reporting.
	now   func() time.Time
	start time.Time

	queue    chan *Job
	wg       sync.WaitGroup
	seq      atomic.Uint64
	draining atomic.Bool
	// submitMu serializes submissions against queue closure: Shutdown takes
	// the write side before closing the channel, so no send can race it.
	submitMu  sync.RWMutex
	closeOnce sync.Once

	// jobCtx is the parent of every job deadline; cancelled only when a
	// Shutdown deadline forces in-flight sweeps to abandon their chunks.
	jobCtx    context.Context
	jobCancel context.CancelFunc

	jobsMu    sync.Mutex
	jobs      map[string]*Job
	doneOrder []string

	// setupPrint fingerprints the machine structure, baseline latencies and
	// analysis options into every analysis cache key, so analyses are
	// shared only between jobs that would build identical ones.
	setupPrint string
	// cfgPrint fingerprints the machine configuration alone. Workload traces
	// depend on the machine but not the analysis options, so they are keyed
	// by this narrower print — two processes differing only in analysis
	// options still share simulated traces through the durable tier.
	cfgPrint string

	// regions memoizes, by workloadKey, the measured-region length of the
	// workload recipes this process has generated (at most regionMemoSize,
	// least recently used evicted): the record count a durable-tier hit
	// must match, known without regenerating the stream.
	regions *cache.Cache[int]

	// beforeJob, when non-nil, runs on the worker goroutine before each
	// job. Tests use it to hold workers busy deterministically.
	beforeJob func(*Job)
}

// workloadArtifacts is one simulated named workload: the trace, the trace's
// content digest and the measured µop stream, which only the sim engine
// reads. A durable-tier hit rebuilds the trace and digest from the stored
// bytes; the stream is regenerated once, on first use (Server.workloadUOps),
// unless the build or the decode already holds it.
type workloadArtifacts struct {
	tr     *trace.Trace
	digest string

	uopsOnce sync.Once
	uops     []isa.MicroOp
	uopsErr  error
}

// regionMemoSize bounds the workload recipes Server.regions keeps. An entry
// is a key and a length; an evicted recipe's next disk hit regenerates the
// stream once more.
const regionMemoSize = 1024

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SweepParallelism <= 0 {
		cfg.SweepParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 32
	}
	if cfg.Limits == (Limits{}) {
		cfg.Limits = DefaultLimits()
	}
	if cfg.BaseConfig == nil {
		cfg.BaseConfig = config.Baseline()
	}
	if cfg.AnalysisOpts == (core.Options{}) {
		cfg.AnalysisOpts = core.DefaultOptions()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	// A nil *store.Store must stay a nil interface, or the tiers would call
	// methods on it.
	var blob cache.BlobStore
	if cfg.Store != nil {
		blob = cfg.Store
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Server{
		cfg:       cfg,
		logger:    cfg.Logger,
		metrics:   newMetrics(),
		store:     cfg.Store,
		workloads: cache.NewTiered[*workloadArtifacts](cfg.CacheEntries, blob),
		analyses:  cache.NewTiered[*core.Analysis](cfg.CacheEntries, blob),
		graphs:    cache.New[*depgraph.Graph](cfg.CacheEntries),
		regions:   cache.New[int](regionMemoSize),
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      make(map[string]*Job),
		fleetJobs: make(map[string]string),
		now:       cfg.Clock,
		start:     time.Now(),
	}
	s.jobCtx, s.jobCancel = context.WithCancel(context.Background())
	s.metrics.reg.Gauge("rpstacks_process_start_time_seconds",
		"Unix time this process started.").Set(float64(s.start.UnixNano()) / 1e9)

	if cfg.JournalCapacity >= 0 {
		// Same nil-interface caveat as the cache tiers: a nil *store.Store
		// must stay a nil journal.Store.
		var jstore journal.Store
		if cfg.Store != nil {
			jstore = cfg.Store
		}
		s.journal = journal.New(journal.Options{
			Store:            jstore,
			Capacity:         cfg.JournalCapacity,
			ProgressInterval: cfg.JournalProgressInterval,
			Now:              s.now,
			Logger:           cfg.Logger,
		})
	}
	if len(cfg.SLOTargets) > 0 {
		s.metrics.slo = prom.NewSLO(s.metrics.reg, prom.SLOOptions{
			Prefix:    "rpstacks_slo",
			Objective: cfg.SLOObjective,
			Now:       s.now,
			OnBurn: func(class string, window time.Duration, rate float64) {
				s.logger.Warn("slo burn: error budget burning faster than the objective allows",
					slog.String("engine", class),
					slog.Duration("window", window),
					slog.Float64("burn_rate", rate))
			},
		})
		engines := make([]string, 0, len(cfg.SLOTargets))
		for engine := range cfg.SLOTargets {
			engines = append(engines, engine)
		}
		sort.Strings(engines)
		for _, engine := range engines {
			s.metrics.slo.SetTarget(engine, cfg.SLOTargets[engine])
		}
	}

	// Parallelism only sets how many workers run an analysis, never its
	// bytes, so it is left out of the artifact identity.
	analysisID := cfg.AnalysisOpts
	analysisID.Parallelism = 0
	cfgJSON, _ := json.Marshal(cfg.BaseConfig)
	print := sha256.Sum256(fmt.Appendf(cfgJSON, "|%+v", analysisID))
	s.setupPrint = fmt.Sprintf("%x", print[:8])
	cfgOnly := sha256.Sum256(cfgJSON)
	s.cfgPrint = fmt.Sprintf("%x", cfgOnly[:8])

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /debug/trace", s.handleTrace)
	s.mux.HandleFunc("GET /debug/audit", s.handleAudit)
	s.mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	s.mux.HandleFunc("GET /debug/jobs/{id}", s.handleDebugJob)
	s.mux.HandleFunc("GET /debug/jobs/{id}/events", s.handleDebugJobEvents)
	s.mux.HandleFunc("GET /debug/status", s.handleDebugStatus)
	s.registerCollectors()

	if cfg.FleetStore != nil {
		s.fleet = fleet.NewCoordinator(fleet.CoordinatorConfig{
			Shared:   cfg.FleetStore,
			LeaseTTL: cfg.FleetLeaseTTL,
			Logger:   cfg.Logger,
			Registry: s.metrics.reg,
			OnChunkEvent: func(sweepID string, chunk int, worker, kind string) {
				if id := s.fleetJob(sweepID); id != "" {
					s.journal.FleetEvent(id, kind, chunk, worker)
				}
			},
		})
		// The coordinator's mux matches full /fleet/v1/... paths, so it
		// mounts without a strip.
		s.mux.Handle("/fleet/", s.fleet)
		s.fleetEligible = fleetDefaultsMatch(cfg.BaseConfig)
		if !s.fleetEligible {
			cfg.Logger.Warn("serve: fleet coordinator mounted but sweeps stay local: " +
				"workers rebuild only the baseline machine")
		}
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP exposes the service as an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops accepting jobs, drains everything already accepted —
// queued and in-flight — and waits for the workers to exit. If ctx expires
// first, running sweeps are cancelled (their jobs finish as canceled) and
// Shutdown still waits for the workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.submitMu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.submitMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobCancel()
		<-done
		return ctx.Err()
	}
}

// worker executes jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job under its deadline and records the terminal
// status. A sweep that exceeds the deadline returns promptly with the
// context error (checked at every chunk boundary), so a timed-out job never
// wedges its worker.
func (s *Server) runJob(job *Job) {
	if hook := s.beforeJob; hook != nil {
		hook(job)
	}
	job.queued.End()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	job.setStatus(JobRunning)
	s.journal.JobRunning(job.ID)

	ctx, cancel := context.WithTimeout(s.jobCtx, job.Spec.Timeout)
	start := s.now()
	res, err := s.execute(ctx, job)
	cancel()

	st := job.complete(res, err)
	job.root.End()
	s.metrics.jobFinished(st)
	elapsed := s.now().Sub(start)
	s.journal.JobFinished(job.ID, finishRecord(job, st, res, err))
	if s.metrics.slo != nil {
		s.metrics.slo.Observe(job.Spec.Engine, elapsed, st == JobDone)
	}
	if thr := s.cfg.SlowJobThreshold; thr > 0 && elapsed > thr {
		s.slowJobWarn(job, st, elapsed)
	}
	s.retire(job)

	attrs := []any{
		slog.String("job_id", job.ID),
		slog.String("status", string(st)),
		slog.String("engine", job.Spec.Engine),
		slog.Duration("elapsed", elapsed),
	}
	if res != nil {
		attrs = append(attrs, slog.String("trace_digest", res.TraceDigest))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
		s.logger.Warn("job finished", attrs...)
		return
	}
	s.logger.Info("job finished", attrs...)
}

// finishRecord shapes a job's terminal state into the journal's Finish.
func finishRecord(job *Job, st JobStatus, res *JobResult, err error) journal.Finish {
	fin := journal.Finish{
		Status:      string(st),
		AuditStatus: job.AuditStatus(),
	}
	if arep := job.Audit(); arep != nil {
		// The record carries the full report; one that cannot be encoded
		// stays out of it and serves only while the job is retained.
		fin.Audit, _ = json.Marshal(arep)
	}
	if err != nil {
		fin.Error = err.Error()
	}
	if res != nil {
		fin.TraceDigest = res.TraceDigest
		fin.GridPoints = res.GridPoints
		fin.BatchSize = job.Spec.BatchSize
		fin.Workers = res.Workers
		fin.SweepMS = res.SweepMS
		fin.SetupCached = res.SetupCached
		if res.Search != nil {
			fin.Search = &journal.SearchStats{
				Mode:      res.Search.Mode,
				Probes:    res.Search.Probes,
				Rounds:    res.Search.Rounds,
				Converged: res.Search.Converged,
				Feasible:  res.Search.Feasible,
				Verified:  res.Search.Verified,
			}
		}
	}
	return fin
}

// slowJobWarn logs the one structured slow-job warning, with the stage
// breakdown the journal accumulated. Called after JobFinished so the sweep
// timing has landed on the record.
func (s *Server) slowJobWarn(job *Job, st JobStatus, elapsed time.Duration) {
	attrs := []any{
		slog.String("job_id", job.ID),
		slog.String("status", string(st)),
		slog.String("engine", job.Spec.Engine),
		slog.Duration("elapsed", elapsed),
		slog.Duration("threshold", s.cfg.SlowJobThreshold),
	}
	if rec, ok := s.journal.Get(job.ID); ok {
		attrs = append(attrs,
			slog.String("trace_digest", rec.TraceDigest),
			slog.Float64("queue_ms", rec.QueueMS),
			slog.Float64("setup_ms", rec.SetupMS),
			slog.Float64("sweep_ms", rec.SweepMS),
			slog.Float64("assemble_ms", rec.AssembleMS))
	}
	s.logger.Warn("slow job: wall-clock exceeded threshold", attrs...)
}

// execute runs the phases of a job — obtain the trace, obtain the
// prediction engine, sweep the grid, rank the results — with the first two
// memoized in the content-addressed caches, the context checked between
// phases, and every phase recorded into the job's flight recorder. The
// engine is built from the one input it reads: an RpStacks job's analysis,
// a graph job's graph or a sim job's µop stream.
func (s *Server) execute(ctx context.Context, job *Job) (*JobResult, error) {
	spec := job.Spec
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setupStart := time.Now()
	setup := job.tracer.StartChild(job.root.ID(), obs.CatJob, obs.NameSetup)

	// Phase 1: the trace (simulate the named workload, or use the upload).
	// Only the sim engine reads a named workload's µop stream, so it is
	// provided on demand.
	tr, digest := spec.Trace, spec.TraceDigest
	var uops func() ([]isa.MicroOp, error)
	cached := true
	if spec.Trace == nil {
		wa, tier, err := s.workloads.GetOrComputeTraced(job.tracer, setup.ID(),
			s.workloadDiskKey(spec), s.workloadCodec(spec, job.tracer, setup.ID()),
			func() (*workloadArtifacts, time.Duration, error) {
				return s.buildWorkload(spec, job.tracer, setup.ID())
			})
		if err != nil {
			setup.End()
			return nil, err
		}
		tr, digest = wa.tr, wa.digest
		uops = func() ([]isa.MicroOp, error) { return s.workloadUOps(wa, spec, job.tracer, setup.ID()) }
		cached = cached && tier.Cached()
	}
	if err := ctx.Err(); err != nil {
		setup.End()
		return nil, err
	}

	// Phase 2: the job's engine, resolved once and inside the setup phase,
	// which obtains only the input the engine reads: the analysis from its
	// tiered cache, the graph from the memo, or the stream of a disk-hit
	// workload. The local sweep or search, the fleet fingerprint and the
	// audit all take this value.
	eng, err := dse.EngineByName(spec.Engine, dse.EngineInputs{
		Analysis: func() (*core.Analysis, error) {
			a, tier, err := s.analyses.GetOrComputeTraced(job.tracer, setup.ID(),
				digest+"|"+s.setupPrint, analysisCodec(),
				func() (*core.Analysis, time.Duration, error) {
					return s.analyze(tr, job.tracer, setup.ID())
				})
			cached = cached && tier.Cached()
			return a, err
		},
		Graph:  func() (*depgraph.Graph, error) { return s.graph(tr, digest, job.tracer, setup.ID()) },
		Config: s.cfg.BaseConfig,
		UOps:   uops,
	})
	setup.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)

	// Phase 3: the sweep, cancellable at chunk granularity. The sweep root
	// span is created by the dse driver itself, nested under the job.
	par := spec.Parallelism
	if par == 0 {
		par = s.cfg.SweepParallelism
	}
	if spec.Search != nil {
		// Guided search: probes the space lazily — never materialize the
		// grid, which may be far beyond MaxGridPoints for search jobs.
		return s.executeSearch(ctx, job, tr, eng, digest, setupWall, cached, par)
	}
	base := s.cfg.BaseConfig.Lat
	opts := dse.ExploreOptions{
		Parallelism: par,
		BatchSize:   spec.BatchSize,
		Context:     ctx,
		Setup:       setupWall,
		Tracer:      job.tracer,
		TraceParent: job.root.ID(),
		// Audited jobs need the sweep fingerprint: it seeds the auditor's
		// deterministic point sample.
		NeedFingerprint: spec.AuditFraction > 0,
	}
	var rep *dse.Report
	if s.delegates(spec) {
		// Distributed sweep: workers regenerate the engine inputs from the
		// job recipe. The fleet protocol fingerprints and assembles over
		// the enumerated list, a copy its per-point cost dwarfs.
		rep, err = s.fleetSweep(ctx, job, spec.Space.Enumerate(base), eng, setupWall, false)
	} else {
		// A local sweep fills its lanes from the space itself: no copy of
		// the grid, and the ranking reads back only its survivors' points.
		rep, err = dse.ExploreSpace(eng, &spec.Space, base, opts)
	}
	if err != nil {
		return nil, err
	}
	s.metrics.observeSweep(spec.Engine, rep.Wall,
		fmt.Sprintf("job_id=%q,trace_digest=%q", job.ID, digest))

	// Phase 4 (audited jobs only): the shadow accuracy audit. It reads the
	// sweep report, re-simulates a fingerprint-sampled subset of points
	// under the remaining job deadline, and never changes the job's
	// predictions — a drifting audit flips the audit status, not the result.
	if spec.AuditFraction > 0 {
		if err := s.auditSweep(ctx, job, rep, eng, digest, par); err != nil {
			return nil, err
		}
	}
	// Phase 5: the ranking, O(n log top) over the read-only results.
	rank := job.tracer.StartChild(job.root.ID(), obs.CatJob, obs.NameRank)
	rank.SetArg(obs.ArgPoints, int64(len(rep.Results)))
	res := rankResults(spec, tr, digest, rep, setupWall, cached)
	rank.End()
	return res, nil
}

// executeSearch runs phase 3 of a guided-search job: the lazy probe loop
// through the job's engine (or, when the fleet serves it, the sweep fleet —
// each probe round becomes one distributed sweep over the round's points),
// online verification of every returned optimum through an audit oracle,
// and the rendering of the SearchResult into the job's result shape.
func (s *Server) executeSearch(ctx context.Context, job *Job, tr *trace.Trace, eng dse.Engine,
	digest string, setupWall time.Duration, cached bool, par int) (*JobResult, error) {
	spec := job.Spec
	opts := dse.SearchOptions{
		ExploreOptions: dse.ExploreOptions{
			Parallelism: par,
			BatchSize:   spec.BatchSize,
			Context:     ctx,
			Setup:       setupWall,
			Tracer:      job.tracer,
			TraceParent: job.root.ID(),
		},
		MicroOps: len(tr.Records),
	}
	// Online verification: a named workload re-simulates ground truth at
	// each returned optimum — the same oracle recipe the shadow audit
	// uses. An uploaded trace has no regeneration recipe, so the graph
	// oracle re-derives the dependence-graph longest path instead (exact
	// for graph-engine searches, a model cross-check for rpstacks).
	if spec.Workload != "" {
		oracle, err := s.simOracle(spec)
		if err != nil {
			return nil, err
		}
		opts.Verify = func(l stacks.Latencies) (float64, error) {
			c, _, err := oracle.Truth(ctx, l)
			return c, err
		}
	} else {
		g, err := s.graph(tr, digest, job.tracer, job.root.ID())
		if err != nil {
			return nil, err
		}
		oracle := &audit.GraphOracle{Graph: g}
		opts.Verify = func(l stacks.Latencies) (float64, error) {
			c, _, err := oracle.Truth(ctx, l)
			return c, err
		}
	}
	if s.delegates(spec) {
		opts.RoundEval = func(rctx context.Context, pts []stacks.Latencies) ([]float64, error) {
			rep, err := s.fleetSweep(rctx, job, pts, eng, 0, true)
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(rep.Results))
			for i, r := range rep.Results {
				out[i] = r.Cycles
			}
			return out, nil
		}
	}
	res, err := dse.Search(eng, s.cfg.BaseConfig.Lat, &spec.Space, spec.Search, opts)
	if err != nil {
		return nil, err
	}
	s.metrics.observeSweep(spec.Engine, res.Wall,
		fmt.Sprintf("job_id=%q,trace_digest=%q", job.ID, digest))
	s.metrics.observeSearch(res)
	return searchResults(spec, tr, digest, res, setupWall, cached, par), nil
}

// searchResults renders a finished guided search as the job result: the
// verified optimum (halving, target) or the cycles-ascending Pareto
// frontier as the point list, plus the probe-loop summary.
func searchResults(spec *JobSpec, tr *trace.Trace, digest string, res *dse.SearchResult,
	setup time.Duration, cached bool, par int) *JobResult {
	uopsN := float64(len(tr.Records))
	var sps []dse.SearchPoint
	if res.Best != nil {
		sps = append(sps, *res.Best)
	}
	sps = append(sps, res.Frontier...)
	pts := make([]PointResult, len(sps))
	for k, p := range sps {
		lat := make(map[string]float64, len(spec.Space.Axes))
		for _, ax := range spec.Space.Axes {
			lat[ax.Event.String()] = p.Lat[ax.Event]
		}
		pts[k] = PointResult{
			Latencies:    lat,
			Cycles:       p.Cycles,
			CPI:          p.Cycles / uopsN,
			Cost:         p.Cost,
			VerifyErrPct: p.VerifyErrPct,
		}
	}
	meeting := 0
	if res.Mode == dse.SearchTarget && res.Feasible {
		meeting = 1
	}
	return &JobResult{
		Engine:      spec.Engine,
		TraceDigest: digest,
		GridPoints:  int(res.GridPoints),
		MicroOps:    len(tr.Records),
		Meeting:     meeting,
		SetupMS:     float64(setup) / float64(time.Millisecond),
		SetupCached: cached,
		SweepMS:     float64(res.Wall) / float64(time.Millisecond),
		Workers:     par,
		Points:      pts,
		Search: &SearchSummary{
			Mode:            res.Mode,
			GridPoints:      int(res.GridPoints),
			Probes:          res.Probes,
			ResumedProbes:   res.ResumedProbes,
			Rounds:          res.Rounds,
			PeakBoxes:       res.PeakBoxes,
			Converged:       res.Converged,
			Feasible:        res.Feasible,
			FrontierSize:    len(res.Frontier),
			Verified:        res.Verified,
			VerifyMaxErrPct: res.VerifyMaxErrPct,
		},
	}
}

// auditSweep runs the shadow audit of a finished sweep and publishes its
// report: onto the job (audit status + /debug/audit), into the durable store
// when one is mounted (so the report survives restarts), and into the audit
// metric families point by point.
func (s *Server) auditSweep(ctx context.Context, job *Job, rep *dse.Report, eng dse.Engine, digest string, par int) error {
	spec := job.Spec
	// The oracle replays the exact ground-truth recipe of the sweep's
	// baseline trace: regenerate the deterministic µop stream (cheap), warm,
	// and re-simulate at each audited point.
	oracle, err := s.simOracle(spec)
	if err != nil {
		return err
	}
	arep, err := audit.Run(rep, oracle, eng.Decompose(), audit.Options{
		Fraction:    spec.AuditFraction,
		Seed:        spec.AuditSeed,
		MaxPoints:   s.cfg.Limits.MaxAuditPoints,
		Parallelism: par,
		DriftPct:    spec.AuditDriftPct,
		Logger:      s.logger,
		JobID:       job.ID,
		Context:     ctx,
		Tracer:      job.tracer,
		TraceParent: job.root.ID(),
		OnPoint: func(p audit.PointAudit) {
			s.metrics.observeAuditPoint(p, job.ID, digest)
		},
	})
	if err != nil {
		return fmt.Errorf("serve: auditing sweep: %w", err)
	}
	s.metrics.auditPoints.With("skipped_budget").Add(float64(arep.Skipped))
	job.setAudit(arep)
	if arep.Status != "ok" {
		s.logger.Warn("audit drift: job predictions exceeded the error threshold",
			slog.String("job_id", job.ID),
			slog.String("trace_digest", digest),
			slog.Float64("max_error_pct", arep.MaxErrorPct),
			slog.Int("drifted", arep.Drifted))
	}
	return nil
}

// workloadKey identifies one named-workload simulation; the analysis layer
// above it is keyed by content digest instead.
func workloadKey(spec *JobSpec) string {
	return fmt.Sprintf("%s|seed=%d|n=%d", spec.Workload, spec.Seed, spec.MicroOps)
}

// workloadDiskKey is the workload key as published to the durable tier.
// Unlike the per-process memory table, the store outlives configuration
// changes, so the machine fingerprint is part of the key: a trace simulated
// under one machine must never satisfy a request under another.
func (s *Server) workloadDiskKey(spec *JobSpec) string {
	return "w|" + s.cfgPrint + "|" + workloadKey(spec)
}

// measuredRegion regenerates a named workload's deterministic µop stream,
// split into functional warmup and measured region by the convention fleet
// workers rebuild under (workload.DefaultWarmup, Generator.MeasuredRegion).
// Generation is cheap and bit-reproducible from (profile, seed), which is
// what lets the durable tier persist only the simulated trace.
func measuredRegion(spec *JobSpec) (gen *workload.Generator, warm, uops []isa.MicroOp, err error) {
	prof, ok := workload.ByName(spec.Workload)
	if !ok {
		return nil, nil, nil, fmt.Errorf("serve: unknown workload %q", spec.Workload)
	}
	gen = workload.NewGenerator(prof, spec.Seed)
	warm, uops = gen.MeasuredRegion(workload.DefaultWarmup(spec.MicroOps), spec.MicroOps)
	return gen, warm, uops, nil
}

// noteRegion memoizes a recipe's measured-region length.
func (s *Server) noteRegion(spec *JobSpec, n int) {
	s.regions.GetOrCompute(workloadKey(spec), func() (int, time.Duration, error) { return n, 0, nil })
}

// regenerate is measuredRegion's stream for a reader that lacks it — a sim
// job on a disk-hit entry, or a disk hit on a recipe the memo does not
// hold — recorded as a uops-regenerate span under parent. The caller keeps
// it on the entry, so it is returned as ownRegion's copy.
func regenerate(spec *JobSpec, otr *obs.Tracer, parent uint64) ([]isa.MicroOp, error) {
	sp := otr.StartChild(parent, obs.CatJob, obs.NameUOpsRegenerate)
	_, _, uops, err := measuredRegion(spec)
	sp.SetArg("uops", int64(len(uops)))
	sp.End()
	return ownRegion(uops), err
}

// ownRegion copies a measured region into an array of its own, exactly
// its length. The region is a view into the generated stream, whose first
// three quarters are functional warmup (workload.DefaultWarmup): an entry
// keeping the view would pin all of it.
func ownRegion(uops []isa.MicroOp) []isa.MicroOp {
	out := make([]isa.MicroOp, len(uops))
	copy(out, uops)
	return out
}

// workloadUOps returns the workload's measured µop stream: the one its build
// or decode already holds, or else a regeneration run once per entry, by
// whichever job asks first.
func (s *Server) workloadUOps(wa *workloadArtifacts, spec *JobSpec, otr *obs.Tracer, parent uint64) ([]isa.MicroOp, error) {
	wa.uopsOnce.Do(func() {
		if wa.uops == nil {
			if wa.uops, wa.uopsErr = regenerate(spec, otr, parent); wa.uopsErr == nil {
				s.noteRegion(spec, len(wa.uops))
			}
		}
	})
	return wa.uops, wa.uopsErr
}

// simOracle is a named-workload job's ground truth: its measured region
// re-simulated on the server's machine at each design point asked.
func (s *Server) simOracle(spec *JobSpec) (*audit.SimOracle, error) {
	gen, warm, uops, err := measuredRegion(spec)
	if err != nil {
		return nil, err
	}
	return &audit.SimOracle{Cfg: s.cfg.BaseConfig, CodeLines: gen.CodeLines(),
		DataLines: gen.DataLines(), Warm: warm, UOps: uops}, nil
}

// buildWorkload simulates the named workload once: functional warmup, then
// the traced region. The returned cost is what later cache hits avoid
// re-paying.
func (s *Server) buildWorkload(spec *JobSpec, otr *obs.Tracer, parent uint64) (*workloadArtifacts, time.Duration, error) {
	start := time.Now()
	gen, warm, uops, err := measuredRegion(spec)
	if err != nil {
		return nil, 0, err
	}
	s.noteRegion(spec, len(uops))
	sim, err := cpu.New(s.cfg.BaseConfig)
	if err != nil {
		return nil, 0, err
	}
	sim.SetTracer(otr, parent)
	sim.WarmCode(gen.CodeLines())
	sim.WarmData(gen.DataLines())
	sim.WarmUp(warm)
	tr, err := sim.Run(uops)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: simulating %s: %w", spec.Workload, err)
	}
	wa := &workloadArtifacts{tr: tr, uops: ownRegion(uops), digest: trace.Digest(tr)}
	return wa, time.Since(start), nil
}

// workloadCodec persists a simulated workload as its canonical trace
// encoding. The µop stream is not stored: it regenerates bit-identically
// from (profile, seed). Decode rejects a trace whose record count is not the
// recipe's measured-region length, taken from the memo; only a recipe the
// memo lacks is regenerated (a uops-regenerate span under parent), and the
// entry keeps that stream. The digest is recomputed from the decoded trace,
// making a served artifact content-verified end to end.
func (s *Server) workloadCodec(spec *JobSpec, otr *obs.Tracer, parent uint64) cache.Codec[*workloadArtifacts] {
	return cache.Codec[*workloadArtifacts]{
		Encode: func(wa *workloadArtifacts) ([]byte, error) {
			var buf bytes.Buffer
			if err := trace.Write(&buf, wa.tr); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		Decode: func(raw []byte) (*workloadArtifacts, error) {
			tr, err := trace.Decode(raw)
			if err != nil {
				return nil, err
			}
			wa := &workloadArtifacts{tr: tr}
			want, _, err := s.regions.GetOrCompute(workloadKey(spec), func() (int, time.Duration, error) {
				var err error
				wa.uops, err = regenerate(spec, otr, parent)
				return len(wa.uops), 0, err
			})
			if err != nil {
				return nil, err
			}
			if len(tr.Records) != want {
				return nil, fmt.Errorf("serve: stored trace has %d records, workload generates %d µops",
					len(tr.Records), want)
			}
			wa.digest = trace.Digest(tr)
			return wa, nil
		},
	}
}

// analysisCodec persists an RpStacks analysis in its core encoding.
func analysisCodec() cache.Codec[*core.Analysis] {
	return cache.Codec[*core.Analysis]{
		Encode: func(a *core.Analysis) ([]byte, error) {
			var buf bytes.Buffer
			err := core.WriteAnalysis(&buf, a)
			return buf.Bytes(), err
		},
		Decode: core.DecodeAnalysis,
	}
}

// analyze runs the one RpStacks analysis of a trace — the representative-
// stack extraction, reusable for any latency configuration of the
// structure — recorded as an analyze span under parent. The returned cost
// is what later cache hits avoid re-paying.
func (s *Server) analyze(tr *trace.Trace, otr *obs.Tracer, parent uint64) (*core.Analysis, time.Duration, error) {
	start := time.Now()
	sp := otr.StartChild(parent, obs.CatJob, obs.NameAnalyze)
	sp.SetArg("uops", int64(len(tr.Records)))
	a, err := core.Analyze(tr, &s.cfg.BaseConfig.Structure, &s.cfg.BaseConfig.Lat, s.cfg.AnalysisOpts)
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("serve: analyzing trace: %w", err)
	}
	return a, time.Since(start), nil
}

// graph returns the trace's dependence graph from the memory memo, building
// it once per trace digest, by whichever job asks first; the build is
// recorded as a graph-build span under parent. Graphs reference trace
// records and are never stored.
func (s *Server) graph(tr *trace.Trace, digest string, otr *obs.Tracer, parent uint64) (*depgraph.Graph, error) {
	g, _, err := s.graphs.GetOrCompute(digest, func() (*depgraph.Graph, time.Duration, error) {
		start := time.Now()
		sp := otr.StartChild(parent, obs.CatJob, obs.NameGraphBuild)
		sp.SetArg("uops", int64(len(tr.Records)))
		g, err := depgraph.Build(tr, &s.cfg.BaseConfig.Structure, 0, len(tr.Records))
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("serve: building graph: %w", err)
		}
		return g, time.Since(start), nil
	})
	return g, err
}

// rankResults renders a sweep's best points as the job result through
// dse.Rank — ascending cycles, original point index breaking ties — keeping
// only points under the CPI target when one is set, up to the requested top
// count.
func rankResults(spec *JobSpec, tr *trace.Trace, digest string, rep *dse.Report, setup time.Duration, cached bool) *JobResult {
	results := rep.Results
	uopsN := float64(len(tr.Records))
	budget := math.Inf(1)
	if spec.TargetCPI > 0 {
		budget = spec.TargetCPI * uopsN
	}
	selected, meeting := dse.Rank(results, spec.Top, budget)
	if spec.TargetCPI <= 0 {
		meeting = 0 // no target: nothing to report as meeting it
	}
	pts := make([]PointResult, len(selected))
	for k, i := range selected {
		p := rep.Point(i)
		lat := make(map[string]float64, len(spec.Space.Axes))
		for _, ax := range spec.Space.Axes {
			lat[ax.Event.String()] = p[ax.Event]
		}
		pts[k] = PointResult{Latencies: lat, Cycles: results[i].Cycles, CPI: results[i].Cycles / uopsN}
	}
	return &JobResult{
		Engine:      spec.Engine,
		TraceDigest: digest,
		GridPoints:  len(results),
		MicroOps:    len(tr.Records),
		Meeting:     meeting,
		SetupMS:     float64(setup) / float64(time.Millisecond),
		SetupCached: cached,
		SweepMS:     float64(rep.Wall) / float64(time.Millisecond),
		Workers:     len(rep.Workers),
		Points:      pts,
	}
}

// --- job registry --------------------------------------------------------

func (s *Server) register(job *Job) {
	s.jobsMu.Lock()
	s.jobs[job.ID] = job
	s.jobsMu.Unlock()
}

func (s *Server) unregister(id string) {
	s.jobsMu.Lock()
	delete(s.jobs, id)
	s.jobsMu.Unlock()
}

// retire enforces the finished-job retention bound.
func (s *Server) retire(job *Job) {
	s.jobsMu.Lock()
	s.doneOrder = append(s.doneOrder, job.ID)
	for len(s.doneOrder) > retainedJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
	s.jobsMu.Unlock()
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- HTTP handlers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func errJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes))
	if err != nil {
		s.metrics.invalid.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			errJSON(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		errJSON(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	spec, err := ParseJobRequest(body, s.cfg.Limits)
	if err != nil {
		s.metrics.invalid.Inc()
		errJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq.Add(1)),
		Spec:      spec,
		Submitted: s.now(),
		status:    JobQueued,
	}
	jobID := job.ID
	job.tracer = obs.NewTracer(traceCapacity, obs.WithOnEnd(func(rec obs.Record) {
		s.metrics.observeSpan(rec)
		s.journal.ObserveSpan(jobID, rec)
	}))
	job.root = job.tracer.Start(obs.CatJob, "job")
	job.root.SetDetail(job.ID)
	job.queued = job.tracer.StartChild(job.root.ID(), obs.CatJob, obs.NameQueueWait)

	s.submitMu.RLock()
	if s.draining.Load() {
		s.submitMu.RUnlock()
		errJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.register(job)
	s.journal.JobQueued(job.ID, journal.Record{
		Engine:      spec.Engine,
		Workload:    spec.Workload,
		TraceDigest: spec.TraceDigest,
		GridPoints:  spec.GridSize,
		BatchSize:   spec.BatchSize,
		Submitted:   job.Submitted,
	})
	select {
	case s.queue <- job:
		s.submitMu.RUnlock()
		s.metrics.submitted.Inc()
		s.logger.Info("job accepted",
			slog.String("job_id", job.ID),
			slog.String("engine", spec.Engine),
			slog.Int("grid_points", spec.GridSize))
		w.Header().Set("Location", "/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.view(false))
	default:
		s.submitMu.RUnlock()
		s.unregister(job.ID)
		s.journal.Discard(job.ID)
		s.metrics.rejected.Inc()
		s.logger.Warn("job rejected: queue full",
			slog.String("job_id", job.ID),
			slog.Int("queue_capacity", cap(s.queue)))
		w.Header().Set("Retry-After", "1")
		errJSON(w, http.StatusTooManyRequests, "job queue is full (depth %d); retry later", cap(s.queue))
	}
}

// handleTrace serves a job's flight recorder: Chrome trace-event JSON by
// default (Perfetto / chrome://tracing loadable), collapsed flamegraph
// stacks with ?format=folded. A fleet-delegated job whose worker trace
// fragments were collected serves the *merged* multi-process timeline —
// the server's own track plus one skew-normalized track per worker — in
// both formats; locally-run jobs serve the single-process view as always.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	job, ok := s.lookup(id)
	if !ok {
		errJSON(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	recs := job.Trace()
	frags := job.FleetFragments()
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		if len(frags) > 0 {
			_ = obs.WriteChromeTimeline(w, obs.MergeTimeline("rpserved", recs, frags))
		} else {
			_ = obs.WriteChromeTrace(w, recs)
		}
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(frags) > 0 {
			recs = obs.MergeTimeline("rpserved", recs, frags).Flatten()
		}
		_ = obs.WriteFolded(w, recs)
	default:
		errJSON(w, http.StatusBadRequest, "unknown trace format %q (want chrome or folded)", r.URL.Query().Get("format"))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		errJSON(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.view(true))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.jobsMu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.jobsMu.Unlock()
	sort.Strings(ids)
	views := make([]jobView, 0, len(ids))
	for _, id := range ids {
		if job, ok := s.lookup(id); ok {
			views = append(views, job.view(false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"queue_depth":    len(s.queue),
		"workers":        s.cfg.Workers,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReady is the load-balancer readiness probe, distinct from /healthz
// (which always answers 200 while the process lives): a draining server and
// a server whose queue is full — the state in which submissions are being
// shed with 429 — both answer 503 so traffic is routed elsewhere first.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case len(s.queue) == cap(s.queue):
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":      "shedding",
			"queue_depth": len(s.queue),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ready",
			"queue_depth": len(s.queue),
		})
	}
}

// handleAudit serves a job's shadow-audit report: from the live job when it
// is still retained, falling back to the job's journal record — which is
// how the report outlives the job's retention and, with a store, a service
// restart.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	if job, ok := s.lookup(id); ok {
		if arep := job.Audit(); arep != nil {
			writeJSON(w, http.StatusOK, arep)
			return
		}
		if job.Spec.AuditFraction > 0 && job.Status() != JobDone {
			errJSON(w, http.StatusNotFound, "job %s has no audit report yet", id)
			return
		}
		errJSON(w, http.StatusNotFound, "job %s was not audited (submit with audit_fraction > 0)", id)
		return
	}
	if rec, ok := s.journal.Get(id); ok && len(rec.Audit) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(rec.Audit)
		return
	}
	errJSON(w, http.StatusNotFound, "no audit report for job %q", id)
}
