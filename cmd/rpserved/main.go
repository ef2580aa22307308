// Command rpserved runs the design-space exploration service: an HTTP server
// accepting exploration jobs (POST /jobs), executing them on a bounded worker
// pool over the dse sweep engines, and amortizing the one-time
// simulate/analyze setup across requests through a content-addressed cache.
//
// Usage:
//
//	rpserved [-addr :8321] [-workers 4] [-queue 64] [-parallelism 8] \
//	         [-cache 32] [-max-grid 1048576] [-timeout 2m] [-drain 30s] \
//	         [-store-dir /var/lib/rpserved] [-store-max-bytes 1073741824] \
//	         [-pprof-addr localhost:6060]
//
// With -store-dir set, simulated workload traces and RpStacks analyses are
// also published to an on-disk content-addressed store: a restarted
// rpserved warm-starts from the directory and serves disk hits for every
// trace it has simulated or analyzed, instead of re-simulating.
// -store-max-bytes bounds the directory with LRU eviction (0 = unbounded).
//
// Endpoints:
//
//	POST /jobs        submit a job (JSON body; see internal/serve.JobRequest)
//	GET  /jobs        list known jobs
//	GET  /jobs/{id}   poll one job, including its ranked results when done
//	GET  /metrics     Prometheus text exposition
//	GET  /healthz     liveness and queue state
//	GET  /readyz      readiness: 503 while draining or shedding, 200 otherwise
//	GET  /debug/trace per-job flight-recorder trace (?job=<id>&format=chrome|folded);
//	                  fleet-delegated jobs serve the merged multi-process
//	                  timeline — one skew-normalized track per worker
//	GET  /debug/audit per-job shadow-audit accuracy report (?job=<id>)
//	GET  /debug/jobs  job journal: wide-event flight records, filterable by
//	                  ?status=&engine=&since=<RFC3339>&limit=
//	GET  /debug/jobs/{id}         one flight record with its retained event log;
//	                  store-backed, so records survive restarts
//	GET  /debug/jobs/{id}/events  live Server-Sent Events stream of the job's
//	                  lifecycle (queued → running → progress → fleet → done),
//	                  resumable via the Last-Event-ID header or ?after=<seq>
//	GET  /debug/status aggregate operational snapshot (?format=json|html)
//
// The job journal is on by default (bound with -journal-capacity; negative
// disables it) and persists finished flight records through -store-dir, at
// most -journal-capacity of them, one store write per finished job.
// -slow-job-threshold logs one structured warning — with the journal's
// per-stage breakdown — for any job slower than the threshold. -slo-rpstacks,
// -slo-graph and -slo-sim declare per-engine latency objectives exported as
// the rpstacks_slo_* families (targets, good/total event counters, and
// multi-window error-budget burn-rate gauges); a window burning faster than
// the -slo-objective budget allows logs a structured warning.
//
// Jobs submitted with "audit_fraction" > 0 are shadow-audited after the
// sweep: a deterministic sample of design points is re-run through the
// ground-truth simulator, per-point CPI error and per-class stall-stack
// divergence feed the rpstacks_audit_* metric families, and points whose
// error exceeds "audit_drift_pct" flip the job's audit_status to "drift".
// The report is served by GET /debug/audit and is part of the job's journal
// record, so it stays queryable as long as the journal retains that record
// (across restarts with -store-dir); with the journal off, as long as the
// job itself is retained.
//
// With -pprof-addr set, net/http/pprof runtime profiling (CPU, heap,
// goroutine, execution trace) is served on a separate listener.
//
// With -fleet-coordinator set (requires -store-dir), the server additionally
// mounts the /fleet/v1/ chunk-lease protocol and delegates eligible sweeps
// and searches — graph and sim jobs over a named workload on the baseline
// machine — to rpworker processes sharing <store-dir>/fleet. RpStacks jobs
// and uploaded-trace jobs always run locally. -fleet-lease-ttl and
// -fleet-chunk tune lease expiry and lease granularity; the
// rpstacks_fleet_* metric families — including the federated per-worker
// rpstacks_fleet_worker_* summaries workers report on completion — land on
// /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// fleetShareDir is where the fleet's shared blob root lives relative to the
// artifact store directory. rpworker applies the same convention to its
// -store-dir flag, so pointing both binaries at one directory just works.
func fleetShareDir(storeDir string) string { return storeDir + "/fleet" }

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent job executors")
	queue := flag.Int("queue", 64, "job queue depth before submissions are shed with 429")
	par := flag.Int("parallelism", runtime.GOMAXPROCS(0), "default per-job sweep workers")
	cacheEntries := flag.Int("cache", 32, "entries per memory cache (workloads, analyses, graphs)")
	maxGrid := flag.Int("max-grid", 1<<20, "largest design grid one job may request")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "largest per-job deadline a request may ask for")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace for in-flight jobs")
	storeDir := flag.String("store-dir", "", "directory for the durable artifact store (empty: memory-only)")
	storeMax := flag.Int64("store-max-bytes", 0, "LRU bound on durable store payload bytes (0: unbounded)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof runtime profiling (empty: off)")
	fleetCoord := flag.Bool("fleet-coordinator", false, "coordinate a sweep fleet: mount /fleet/v1/ and lease sweep chunks to rpworker processes (requires -store-dir)")
	fleetTTL := flag.Duration("fleet-lease-ttl", 10*time.Second, "fleet lease heartbeat TTL before a chunk is re-leased")
	fleetChunk := flag.Int("fleet-chunk", 0, "design points per fleet lease (0: ~32 chunks per sweep)")
	journalCap := flag.Int("journal-capacity", 0, "job journal flight records retained in memory and persisted in -store-dir (0: 512; negative: journal off)")
	slowJob := flag.Duration("slow-job-threshold", 0, "log a structured warning with the per-stage breakdown for jobs slower than this (0: off)")
	sloRp := flag.Duration("slo-rpstacks", 0, "latency objective for rpstacks-engine jobs (0: no SLO)")
	sloGraph := flag.Duration("slo-graph", 0, "latency objective for graph-engine jobs (0: no SLO)")
	sloSim := flag.Duration("slo-sim", 0, "latency objective for sim-engine jobs (0: no SLO)")
	sloObjective := flag.Float64("slo-objective", 0, "SLO success-ratio objective shared by every target (0: 0.99)")
	flag.Parse()

	obs := obsOpts{
		journalCap:   *journalCap,
		slowJob:      *slowJob,
		sloObjective: *sloObjective,
		sloTargets:   map[string]time.Duration{},
	}
	for engine, d := range map[string]time.Duration{"rpstacks": *sloRp, "graph": *sloGraph, "sim": *sloSim} {
		if d > 0 {
			obs.sloTargets[engine] = d
		}
	}

	if err := run(*addr, *workers, *queue, *par, *cacheEntries, *maxGrid, *timeout, *maxTimeout, *drain, *storeDir, *storeMax, *pprofAddr, *fleetCoord, *fleetTTL, *fleetChunk, obs); err != nil {
		fmt.Fprintf(os.Stderr, "rpserved: %v\n", err)
		os.Exit(1)
	}
}

// obsOpts bundles the journal/SLO observability flags into run.
type obsOpts struct {
	journalCap   int
	slowJob      time.Duration
	sloObjective float64
	sloTargets   map[string]time.Duration
}

func run(addr string, workers, queue, par, cacheEntries, maxGrid int, timeout, maxTimeout, drain time.Duration, storeDir string, storeMax int64, pprofAddr string, fleetCoord bool, fleetTTL time.Duration, fleetChunk int, obs obsOpts) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", queue)
	}
	if par < 1 {
		return fmt.Errorf("-parallelism must be at least 1, got %d", par)
	}
	lim := serve.DefaultLimits()
	if maxGrid > 0 {
		lim.MaxGridPoints = maxGrid
	}
	if timeout > 0 {
		lim.DefaultTimeout = timeout
	}
	if maxTimeout > 0 {
		lim.MaxTimeout = maxTimeout
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var durable *store.Store
	if storeDir != "" {
		var err error
		durable, err = store.Open(storeDir, store.Options{MaxBytes: storeMax, Logger: logger})
		if err != nil {
			return fmt.Errorf("opening artifact store: %w", err)
		}
		st := durable.Stats()
		logger.Info("artifact store warm-started",
			slog.String("dir", storeDir),
			slog.Int("entries", st.Entries),
			slog.Int64("bytes", st.Bytes))
	}

	var shared *store.Shared
	if fleetCoord {
		if storeDir == "" {
			return fmt.Errorf("-fleet-coordinator requires -store-dir: workers publish chunk results there")
		}
		var err error
		// The fleet blob root lives beside (not inside) the artifact store's
		// objects, under its own subdirectory, so the store's orphan sweep
		// never touches fleet blobs.
		shared, err = store.OpenShared(fleetShareDir(storeDir))
		if err != nil {
			return fmt.Errorf("opening fleet share: %w", err)
		}
		logger.Info("fleet coordinator enabled",
			slog.String("share", fleetShareDir(storeDir)),
			slog.Duration("lease_ttl", fleetTTL))
	}

	svc := serve.New(serve.Config{
		QueueDepth:       queue,
		Workers:          workers,
		SweepParallelism: par,
		CacheEntries:     cacheEntries,
		Limits:           lim,
		Store:            durable,
		Logger:           logger,
		FleetStore:       shared,
		FleetLeaseTTL:    fleetTTL,
		FleetChunkSize:   fleetChunk,
		JournalCapacity:  obs.journalCap,
		SlowJobThreshold: obs.slowJob,
		SLOTargets:       obs.sloTargets,
		SLOObjective:     obs.sloObjective,
	})
	httpSrv := &http.Server{Addr: addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		// The profiler listens on its own mux so /debug/pprof is never
		// exposed on the service address.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", slog.String("addr", pprofAddr))
			if err := http.ListenAndServe(pprofAddr, mux); err != nil {
				logger.Warn("pprof listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		slog.String("addr", addr),
		slog.Int("workers", workers),
		slog.Int("queue_depth", queue))

	select {
	case err := <-errc:
		return err // the listener failed before any shutdown signal
	case <-ctx.Done():
	}

	logger.Info("draining", slog.Duration("grace", drain))
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Stop the listener first so no new jobs arrive, then drain the queue.
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("stopping listener: %w", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("draining jobs: %w", err)
	}
	logger.Info("drained, exiting")
	return nil
}
