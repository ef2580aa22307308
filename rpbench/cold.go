package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
)

// pinnedAnalyses are the SHA-256 digests of core.WriteAnalysis of the
// serial reference analyses at full scale, as the seed code produced them.
// A change to the analyzer's output fails every analyze-cold run until the
// pins are updated on purpose.
var pinnedAnalyses = map[string]string{
	"416.gamess/10000": "2e69d0d2c7d9688f87e55d304f0550370399d270d4accf4a4be33bf6ba9d4205",
	"433.milc/10000":   "784f6f2980bbc7e35003db43014a1231bf05f1538bbd7a380e70c32f069469da",
}

// analyzeCold is the library path rpexplore takes for 416.gamess and
// 433.milc: warm and simulate, core.Analyze with GOMAXPROCS workers, then a
// Fig 13-sized RpStacks sweep. core.Analyze is nearly all of its setup.
func analyzeCold(r *run) error {
	cfg := config.Baseline()
	rng := rand.New(rand.NewSource(r.seed))
	apps := []string{"416.gamess", "433.milc"}
	rng.Shuffle(len(apps), func(a, b int) { apps[a], apps[b] = apps[b], apps[a] })
	opts := core.DefaultOptions()
	opts.Parallelism = runtime.GOMAXPROCS(0)

	// Untimed reference: a fresh serial core.AnalyzeRange per program, on
	// its own simulation. One worker takes AnalyzeRange's serial path, so
	// every timed (parallel) analysis is checked against other code; at
	// full scale the reference is also pinned to the seed code's bytes.
	serial := opts
	serial.Parallelism = 1
	subs := make([]*subject, len(apps))
	refs := make([][]byte, len(apps))
	for i, app := range apps {
		s, err := newSubject(app, r.size.coldUOps)
		if err != nil {
			return err
		}
		tr, err := s.simulate(cfg)
		if err != nil {
			return err
		}
		a, err := core.AnalyzeRange(tr, &cfg.Structure, &cfg.Lat, serial, 0, len(tr.Records))
		if err != nil {
			return err
		}
		if refs[i], err = encodeAnalysis(a); err != nil {
			return err
		}
		if want, ok := pinnedAnalyses[fmt.Sprintf("%s/%d", app, r.size.coldUOps)]; ok {
			got := sha256.Sum256(refs[i])
			r.check(hex.EncodeToString(got[:]) == want, "%s: analysis bytes differ from the pinned digest", app)
		}
		subs[i] = s
	}
	sweepPts, err := grid(cfg, shuffleAxes(rng, r.size.sweepAxes))
	if err != nil {
		return err
	}

	// Timed: repeated cold setups, each followed by the Fig 13-sized sweep.
	var setups, allocs, sims, analyzes, analyzeAllocs []float64
	traces := make([]*trace.Trace, len(subs))
	analyses := make([]*core.Analysis, len(subs))
	start := time.Now()
	for i := 0; i < r.size.minReps || time.Since(start) < r.budget*55/100; i++ {
		a0 := totalAlloc()
		var sim, analyze time.Duration
		var analyzeAlloc uint64
		t0 := time.Now()
		for k, s := range subs {
			t := time.Now()
			if traces[k], err = s.simulate(cfg); err != nil {
				return err
			}
			sim += time.Since(t)
			var b0 uint64
			if r.traced {
				b0 = totalAlloc()
			}
			t = time.Now()
			if analyses[k], err = core.Analyze(traces[k], &cfg.Structure, &cfg.Lat, opts); err != nil {
				return err
			}
			analyze += time.Since(t)
			if r.traced {
				analyzeAlloc += totalAlloc() - b0
			}
		}
		setup := time.Since(t0)
		for _, a := range analyses {
			if _, err := dse.ExploreRpStacksOpts(a, sweepPts, sweepOpts()); err != nil {
				return err
			}
		}
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
		setups = append(setups, seconds(setup))
		sims = append(sims, seconds(sim))
		analyzes = append(analyzes, seconds(analyze))
		analyzeAllocs = append(analyzeAllocs, float64(analyzeAlloc)/1e6)
		for k, a := range analyses {
			got, err := encodeAnalysis(a)
			r.check(err == nil && bytes.Equal(got, refs[k]), "%s: analysis bytes differ from the serial AnalyzeRange reference", apps[k])
		}
	}
	uops := 0
	for _, tr := range traces {
		uops += len(tr.Records)
	}

	r.calibrate()
	// Timed: exploration jobs over the analyses just built.
	jobPts, err := grid(cfg, shuffleAxes(rng, r.size.jobAxes))
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(r.workdir, "jobs"), store.Options{})
	if err != nil {
		return err
	}
	jobs := make([]*libJob, len(subs))
	for k := range subs {
		if jobs[k], err = r.rpStacksJob(st, cfg, apps[k], traces[k], analyses[k], jobPts); err != nil {
			return err
		}
	}
	rates := r.libraryJobs(jobs, r.budget*30/100)

	// Untimed: accuracy against re-simulation on the canonical grid.
	canon, err := grid(cfg, r.size.sweepAxes)
	if err != nil {
		return err
	}
	errPct, err := r.rpStacksErr(cfg, subs, analyses, canon)
	if err != nil {
		return err
	}

	r.setMedian("setup_s", setups)
	r.setMedian("alloc_mb", allocs)
	r.setMedian("points_per_s", rates)
	r.set("pred_err_pct", errPct)
	if !r.traced {
		return nil
	}

	r.set("bench.traced_setup_s", median(setups))
	r.set("cpu.simulate_s", median(sims))
	r.set("cpu.uops_per_s", float64(uops)/median(sims))
	r.set("core.analyze_s", median(analyzes))
	r.set("core.analyze_uops_per_s", float64(uops)/median(analyzes))
	r.set("core.analyze_alloc_mb", median(analyzeAllocs))
	var build, gen time.Duration
	stackCount := 0
	for k, a := range analyses {
		b, g, err := r.decomposeAnalysis(traces[k], cfg, opts, refs[k])
		if err != nil {
			return err
		}
		build += b
		gen += g
		stackCount += a.NumStacks()
	}
	r.set("core.segment_build_s", seconds(build))
	r.set("core.generate_s", seconds(gen))
	r.set("core.stacks", float64(stackCount))
	r.set("audit.oracle_s", seconds(r.oracleTime))
	return nil
}

// rpStacksJob publishes a program's trace and analysis to the job store
// and returns its library job over points: mem sweeps the analysis in
// hand; disk decodes both blobs and rebuilds the dependence graph, as
// rpserved's durable tier does, before sweeping. The reference answer is
// the serial scalar sweep.
func (r *run) rpStacksJob(st *store.Store, cfg *config.Config, app string, tr *trace.Trace, a *core.Analysis, points []stacks.Latencies) (*libJob, error) {
	tblob, err := encodeTrace(tr)
	if err != nil {
		return nil, err
	}
	ablob, err := encodeAnalysis(a)
	if err != nil {
		return nil, err
	}
	tkey, akey := "trace|"+app, "analysis|"+app
	if err := publish(st, tkey, tblob); err != nil {
		return nil, err
	}
	if err := publish(st, akey, ablob); err != nil {
		return nil, err
	}
	ref, err := dse.ExploreRpStacksOpts(a, points, dse.ExploreOptions{BatchSize: 1})
	if err != nil {
		return nil, err
	}
	return &libJob{
		app:    app,
		points: len(points),
		want:   answerOf(ref.Results),
		mem:    func() (*dse.Report, error) { return dse.ExploreRpStacksOpts(a, points, sweepOpts()) },
		disk: func() (*dse.Report, error) {
			tr, err := decodeTrace(st, tkey)
			if err != nil {
				return nil, err
			}
			blob, err := getBlob(st, akey)
			if err != nil {
				return nil, err
			}
			an, err := core.ReadAnalysis(bytes.NewReader(blob))
			if err != nil {
				return nil, err
			}
			if _, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records)); err != nil {
				return nil, err
			}
			return dse.ExploreRpStacksOpts(an, points, sweepOpts())
		},
	}, nil
}
