package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/obs/journal"
	"repro/internal/serve"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/trace"
)

// serviceApps are the programs service-jobs serves. Three programs through
// two memory-cache slots in round-robin make every round's first job per
// program a memory miss served from disk, and its second a memory hit.
var serviceApps = []string{"403.gcc", "458.sjeng", "429.mcf"}

// serviceRef is the library's answer for one program, which every job the
// service answers for it must equal.
type serviceRef struct {
	sub      *subject
	tr       *trace.Trace
	digest   string
	analysis *core.Analysis
	want     answer
}

// serviceJobs drives an in-process rpserved (serve.New behind httptest on
// loopback, a fresh store.Open directory, the journal at its default, two
// cache slots) with one closed-loop client. Each round visits the three
// programs in turn and submits two identical RpStacks jobs for each: the
// first is served from disk, the second from memory.
func serviceJobs(r *run) error {
	cfg := config.Baseline()
	rng := rand.New(rand.NewSource(r.seed))
	apps := append([]string(nil), serviceApps...)
	rng.Shuffle(len(apps), func(a, b int) { apps[a], apps[b] = apps[b], apps[a] })
	axes := shuffleAxes(rng, r.size.jobAxes)
	points, err := grid(cfg, axes)
	if err != nil {
		return err
	}
	evs := make([]stacks.Event, len(axes))
	for i, a := range axes {
		ax, err := dse.ParseAxisSpec(a)
		if err != nil {
			return err
		}
		evs[i] = ax.Event
	}

	var svc *service
	// Untimed reference: the library sweep of each program over the grid,
	// with rpserved's default analysis options.
	opts := core.DefaultOptions()
	refs := make([]*serviceRef, len(apps))
	var analyze time.Duration
	var analyzeAlloc uint64
	width := 0
	for k, app := range apps {
		s, err := newSubject(app, r.size.serviceUOps)
		if err != nil {
			return err
		}
		ref := &serviceRef{sub: s}
		if ref.tr, err = s.simulate(cfg); err != nil {
			return err
		}
		a0 := totalAlloc()
		t := time.Now()
		if ref.analysis, err = core.Analyze(ref.tr, &cfg.Structure, &cfg.Lat, opts); err != nil {
			return err
		}
		analyze += time.Since(t)
		analyzeAlloc += totalAlloc() - a0
		rep, err := dse.ExploreRpStacksOpts(ref.analysis, points, sweepOpts())
		if err != nil {
			return err
		}
		width = rep.Batch
		ref.digest = trace.Digest(ref.tr)
		ref.want = answerOf(rep.Results)
		refs[k] = ref
	}

	// job submits one job for program k and checks it was served as class
	// with the library's answer. A job the service fails ends the run.
	job := func(k int, class string) (*jobOutcome, error) {
		out, err := svc.job(apps[k])
		if err != nil {
			return nil, fmt.Errorf("%s job for %s: %w", class, apps[k], err)
		}
		r.check(out.class == class && out.matches(refs[k], points, evs),
			"%s %s job: served as %s, digest %s, %d points", apps[k], class, out.class, out.result.TraceDigest, len(out.result.Points))
		return out, nil
	}

	// Timed: setups, each a server start plus one cold job per program.
	var setups []float64
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < r.budget*25/100; i++ {
		if svc != nil {
			svc.close()
		}
		t0 := time.Now()
		if svc, err = startService(filepath.Join(r.workdir, "store-"+strconv.Itoa(i)), axes, r.size.serviceUOps); err != nil {
			return err
		}
		for k := range apps {
			if _, err := job(k, "build"); err != nil {
				return err
			}
		}
		setups = append(setups, seconds(time.Since(t0)))
	}

	r.calibrate()
	// Timed: rounds of one disk and one mem job per program.
	m0, err := svc.scrape()
	if err != nil {
		return err
	}
	jt := newJobTimes()
	stage := map[string][]float64{}
	var rates, allocs []float64
	start = time.Now()
	for jt.more(start, r.budget*60/100, r.size.minClass) {
		a0 := totalAlloc()
		for k := range apps {
			for _, class := range []string{"disk", "mem"} {
				out, err := job(k, class)
				if err != nil {
					return err
				}
				if !jt.add(class, out.latency, out.stolen) {
					continue
				}
				stage[class+"_queue"] = append(stage[class+"_queue"], out.record.QueueMS)
				stage[class+"_setup"] = append(stage[class+"_setup"], out.record.SetupMS)
				stage[class+"_sweep"] = append(stage[class+"_sweep"], out.result.SweepMS)
				if out.result.SweepMS > 0 {
					rates = append(rates, float64(len(points))/(out.result.SweepMS/1e3))
				}
			}
		}
		allocs = append(allocs, float64(totalAlloc()-a0)/1e6)
	}
	wall := time.Since(start)
	m1, err := svc.scrape()
	if err != nil {
		return err
	}
	r.setJobMetrics(jt, wall)

	// Untimed: accuracy of the analyses the service serves, against
	// re-simulation on the canonical grid.
	canon, err := grid(cfg, r.size.jobAxes)
	if err != nil {
		return err
	}
	subs := make([]*subject, len(refs))
	analyses := make([]*core.Analysis, len(refs))
	for k, ref := range refs {
		subs[k], analyses[k] = ref.sub, ref.analysis
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

	uops := 0
	stackCount := 0
	for _, ref := range refs {
		uops += len(ref.tr.Records)
		stackCount += ref.analysis.NumStacks()
	}
	r.set("bench.traced_setup_s", median(setups))
	r.set("core.analyze_s", seconds(analyze))
	r.set("core.analyze_uops_per_s", float64(uops)/seconds(analyze))
	r.set("core.analyze_alloc_mb", float64(analyzeAlloc)/1e6)
	r.set("core.stacks", float64(stackCount))
	for _, c := range []string{"mem", "disk"} {
		r.set("serve."+c+"_queue_ms", median(stage[c+"_queue"]))
		r.set("serve."+c+"_setup_ms", median(stage[c+"_setup"]))
		r.set("serve."+c+"_sweep_ms", median(stage[c+"_sweep"]))
	}
	hits := m1["rpstacks_cache_hits_total"] - m0["rpstacks_cache_hits_total"]
	misses := m1["rpstacks_cache_misses_total"] - m0["rpstacks_cache_misses_total"]
	r.set("serve.mem_hit_ratio", hits/(hits+misses))
	r.set("store.hits", m1["rpstacks_store_hits_total"]-m0["rpstacks_store_hits_total"])

	for _, ref := range refs {
		blob, err := encodeAnalysis(ref.analysis)
		if err != nil {
			return err
		}
		r.predictProbe(ref.analysis, points, width)
		if err := r.decodeProbe(ref, blob); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if err := r.lap("depgraph.build", func() error {
				_, err := depgraph.Build(ref.tr, &cfg.Structure, 0, len(ref.tr.Records))
				return err
			}); err != nil {
				return err
			}
		}
	}
	r.set("core.predict_ns", r.lapMedian("core.predict", time.Nanosecond))
	r.set("core.batch_predict_ns", r.lapMedian("core.batch_predict", time.Nanosecond))
	r.set("core.decode_ms", r.lapMedian("core.decode", time.Millisecond))
	r.set("trace.decode_ms", r.lapMedian("trace.decode", time.Millisecond))
	buildS := r.lapMedian("depgraph.build", time.Second)
	r.set("depgraph.build_s", buildS)
	r.set("depgraph.build_uops_per_s", float64(uops)/float64(len(refs))/buildS)
	return nil
}

// decodeProbe times trace.Read and core.ReadAnalysis on the blobs the
// service publishes for a program — the codecs are deterministic, so these
// are byte for byte the stored blobs — and checks both round-trip.
func (r *run) decodeProbe(ref *serviceRef, analysisBlob []byte) error {
	traceBlob, err := encodeTrace(ref.tr)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		var tr *trace.Trace
		if err := r.lap("trace.decode", func() (err error) {
			tr, err = trace.Read(bytes.NewReader(traceBlob))
			return err
		}); err != nil {
			return err
		}
		var a *core.Analysis
		if err := r.lap("core.decode", func() (err error) {
			a, err = core.ReadAnalysis(bytes.NewReader(analysisBlob))
			return err
		}); err != nil {
			return err
		}
		if i == 0 {
			again, err := encodeAnalysis(a)
			r.check(err == nil && bytes.Equal(again, analysisBlob) && trace.Digest(tr) == ref.digest,
				"decoded blobs of %s do not round-trip", ref.sub.app)
		}
	}
	return nil
}

// service is one in-process rpserved and its client.
type service struct {
	srv  *serve.Server
	ts   *httptest.Server
	hc   *http.Client
	axes []string
	uops int
}

func startService(dir string, axes []string, uops int) (*service, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Store: st, CacheEntries: 2})
	// One closed-loop client: the submission and the event stream are its
	// only two connections.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return &service{srv: srv, ts: httptest.NewServer(srv), hc: hc, axes: axes, uops: uops}, nil
}

// close stops the listener, drains the server and waits for its workers.
func (s *service) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every job has finished; nothing is left to drain
}

// jobOutcome is one answered job: latency from POST /jobs to the done
// event, the ranked result, and the journal record.
type jobOutcome struct {
	latency time.Duration
	stolen  bool   // the hypervisor took CPU time from the VM during latency
	class   string // build, disk or mem: how the job's setup was served
	result  serve.JobResult
	record  journal.Record
}

// job submits one RpStacks job for app and waits for it on the job's SSE
// event stream, then fetches its result and journal record.
func (s *service) job(app string) (*jobOutcome, error) {
	body, err := json.Marshal(serve.JobRequest{Workload: app, MicroOps: s.uops, Seed: traceSeed, Axes: s.axes, Top: topN})
	if err != nil {
		return nil, err
	}
	steal0 := stealNow()
	start := time.Now()
	resp, err := s.hc.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = decodeResponse(resp, http.StatusAccepted, &accepted)
	if err != nil {
		return nil, fmt.Errorf("submitting: %w", err)
	}
	events, err := s.hc.Get(s.ts.URL + "/debug/jobs/" + accepted.ID + "/events")
	if err != nil {
		return nil, err
	}
	status, err := awaitDone(events.Body)
	out := &jobOutcome{latency: time.Since(start), stolen: stealNow() != steal0}
	_, _ = io.Copy(io.Discard, events.Body) // the stream ends after done; drain for reuse
	events.Body.Close()
	if err != nil {
		return nil, err
	}
	if status != string(serve.JobDone) {
		return nil, fmt.Errorf("job %s ended %s", accepted.ID, status)
	}
	var view struct {
		Result *serve.JobResult `json:"result"`
	}
	if err := s.getJSON("/jobs/"+accepted.ID, &view); err != nil {
		return nil, err
	}
	if view.Result == nil {
		return nil, fmt.Errorf("job %s has no result", accepted.ID)
	}
	out.result = *view.Result
	if err := s.getJSON("/debug/jobs/"+accepted.ID, &out.record); err != nil {
		return nil, err
	}
	switch rec := out.record; {
	case rec.CacheBuilds > 0:
		out.class = "build"
	case rec.CacheDiskHits > 0:
		out.class = "disk"
	default:
		out.class = "mem"
	}
	return out, nil
}

// awaitDone reads an SSE stream until the done event and returns its
// status.
func awaitDone(body io.Reader) (string, error) {
	sc := bufio.NewScanner(body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == journal.EventDone {
			var ev journal.Event
			if err := json.Unmarshal([]byte(v), &ev); err != nil {
				return "", err
			}
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream ended without a done event")
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.ts.URL + path)
	if err != nil {
		return err
	}
	if err := decodeResponse(resp, http.StatusOK, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// decodeResponse checks the status and decodes the JSON body into v.
func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// scrape reads /metrics and sums every sample of each metric name over its
// labels.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		if v, err := strconv.ParseFloat(strings.TrimSpace(value), 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// matches reports whether the job answered exactly the library's ranked
// top results for its program over the same grid.
func (o *jobOutcome) matches(ref *serviceRef, points []stacks.Latencies, evs []stacks.Event) bool {
	res := o.result
	if res.TraceDigest != ref.digest || len(res.Points) != len(ref.want.idx) {
		return false
	}
	for k, p := range res.Points {
		pt := points[ref.want.idx[k]]
		if p.Cycles != ref.want.cycles[k] {
			return false
		}
		for _, ev := range evs {
			if p.Latencies[ev.String()] != pt[ev] {
				return false
			}
		}
	}
	return true
}
