// Command rpworker is a sweep-fleet worker: it pulls chunk leases from an
// rpserved fleet coordinator (-coordinator), deterministically rebuilds each
// sweep's engine inputs from the leased recipe, evaluates its chunks through
// the batched sweep engines, and publishes result blobs into the shared
// store root both processes mount (-store-dir, same flag value as rpserved's).
//
// The fleet serves the graph and sim engines, whose per-point cost grows
// with trace length; rpstacks sweeps never reach a worker. The rebuild
// regenerates the workload's µop stream with rpserved's warmup split, and
// for a graph sweep also simulates it on the baseline machine and builds
// the dependence graph. It runs no RpStacks analysis.
//
// Usage:
//
//	rpworker -coordinator http://host:8321 -store-dir /var/lib/rpserved \
//	         [-concurrency 8] [-addr :8322] [-id worker-a] [-poll 200ms] \
//	         [-pprof-addr localhost:6061] [-trace-out worker.trace.json]
//
// The worker proves sweep identity before evaluating anything: it recomputes
// the sweep fingerprint from its rebuilt inputs and exits with an error if it
// disagrees with the coordinator's — a mismatched worker never publishes.
//
// With -addr set, GET /healthz and GET /readyz are served with rpserved's
// semantics: /healthz always answers 200 (status ok or draining, plus
// uptime_seconds), /readyz flips to 503 once draining — and GET /metrics
// serves the worker's own rpstacks_worker_* families (including
// rpstacks_process_start_time_seconds) in Prometheus exposition format. The first
// SIGINT/SIGTERM drains — the chunk in flight finishes and is published —
// and a second one aborts hard.
//
// The worker always traces itself: its lease/evaluate/publish spans are
// published as clock-synced fragments beside the chunk blobs (the
// coordinator merges them into the fleet timeline at
// /debug/trace?job=<id>), and -trace-out additionally writes this process's
// own span timeline as Chrome trace-event JSON on exit — the standalone
// fragment dump for debugging one worker without a coordinator view.
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

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	coordinator := flag.String("coordinator", "", "base URL of the rpserved fleet coordinator (required)")
	storeDir := flag.String("store-dir", "", "artifact store directory shared with the coordinator (required; the fleet root is <dir>/fleet)")
	concurrency := flag.Int("concurrency", runtime.GOMAXPROCS(0), "per-chunk sweep parallelism")
	addr := flag.String("addr", "", "listen address for /healthz and /readyz (empty: no listener)")
	id := flag.String("id", "", "worker identity reported to the coordinator (default <hostname>-<pid>)")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle re-poll interval when no chunk is grantable (a shorter coordinator wait hint wins)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof runtime profiling (empty: off)")
	traceOut := flag.String("trace-out", "", "write this worker's span timeline as Chrome trace-event JSON on exit (empty: off)")
	flag.Parse()

	if err := run(*coordinator, *storeDir, *concurrency, *addr, *id, *poll, *pprofAddr, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "rpworker: %v\n", err)
		os.Exit(1)
	}
}

func run(coordinator, storeDir string, concurrency int, addr, id string, poll time.Duration, pprofAddr, traceOut string) error {
	if coordinator == "" {
		return fmt.Errorf("-coordinator is required")
	}
	if storeDir == "" {
		return fmt.Errorf("-store-dir is required")
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// Same layout convention as rpserved -fleet-coordinator: the shared blob
	// root is the fleet/ subdirectory of the artifact store directory.
	shared, err := store.OpenShared(storeDir + "/fleet")
	if err != nil {
		return fmt.Errorf("opening fleet share: %w", err)
	}

	w := fleet.NewWorker(fleet.WorkerConfig{
		CoordinatorURL: coordinator,
		Shared:         shared,
		Concurrency:    concurrency,
		ID:             id,
		PollInterval:   poll,
		Logger:         logger,
	})

	if addr != "" {
		go func() {
			logger.Info("health listener", slog.String("addr", addr))
			if err := http.ListenAndServe(addr, w.Handler()); err != nil {
				logger.Warn("health listener failed", slog.String("error", err.Error()))
			}
		}()
	}
	if pprofAddr != "" {
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

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logger.Info("draining: finishing the chunk in flight")
		w.Drain()
		<-sigs
		logger.Warn("second signal: aborting")
		cancel()
	}()

	logger.Info("worker starting",
		slog.String("coordinator", coordinator),
		slog.String("id", w.ID()),
		slog.Int("concurrency", concurrency))
	runErr := w.Run(ctx)
	if traceOut != "" {
		// One-track timeline named by the worker id — the same track shape
		// this process contributes to the coordinator's merged view, without
		// needing a coordinator to look at it.
		tl := &obs.Timeline{Tracks: []obs.ProcessTrack{{Name: w.ID(), Records: w.Tracer().Snapshot()}}}
		f, err := os.Create(traceOut)
		if err == nil {
			err = obs.WriteChromeTimeline(f, tl)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			logger.Warn("writing trace failed", slog.String("path", traceOut), slog.String("error", err.Error()))
		} else {
			logger.Info("trace written", slog.String("path", traceOut))
		}
	}
	if runErr != nil && runErr != context.Canceled {
		return runErr
	}
	logger.Info("worker exiting")
	return nil
}
