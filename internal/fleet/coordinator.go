package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/store"
)

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Shared is the blob root workers publish chunk results into; required
	// and necessarily the same directory the workers open.
	Shared *store.Shared
	// LeaseTTL is how long a granted lease lives without a heartbeat before
	// its chunk is re-leased (default 10s). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// WaitHint is the retry delay handed to workers when no chunk is
	// grantable (default 200ms).
	WaitHint time.Duration
	// Now is the lease clock, injectable for deterministic expiry tests
	// (default time.Now). It orders grants and expiries only; span and
	// histogram durations use the real clock.
	Now func() time.Time
	// Logger receives lease-lifecycle logs. Nil discards.
	Logger *slog.Logger
	// Registry receives the rpstacks_fleet_* metric families — rpserved
	// passes its own so one scrape covers the fleet. Nil uses a private
	// registry (the metrics still drive tests via their handles).
	Registry *prom.Registry
	// OnChunkEvent observes lease-lifecycle transitions: kind is "lease",
	// "steal" or "expire". It is called with the coordinator's lock held and
	// must not call back into the Coordinator; rpserved routes these into
	// the job journal's live stream. Nil disables.
	OnChunkEvent func(sweepID string, chunk int, worker, kind string)
}

// Coordinator owns the lease state machine of every active sweep and the
// /fleet/v1/ HTTP protocol workers speak. One Coordinator serves any number
// of concurrent sweeps; Run registers one and blocks until its Report is
// assembled. Create with NewCoordinator, mount as an http.Handler.
type Coordinator struct {
	shared       *store.Shared
	ttl          time.Duration
	waitHint     time.Duration
	now          func() time.Time
	logger       *slog.Logger
	metrics      *coordMetrics
	mux          *http.ServeMux
	onChunkEvent func(sweepID string, chunk int, worker, kind string)

	mu       sync.Mutex
	sweeps   map[string]*sweepState
	order    []string // registration order: FIFO fairness across sweeps
	leases   map[uint64]*lease
	leaseSeq uint64
	workers  map[string]time.Time // worker id -> last seen

	// finished remembers recently assembled sweeps (FIFO-bounded at
	// finishedRetain; finishedOrder is the eviction order) with their decoded
	// trace fragments, so the serving layer can build the merged timeline
	// after Run returns, and so a late completion of a finished sweep can
	// delete the blobs its publisher wrote after assembly.
	finished      map[string][]*obs.Fragment
	finishedOrder []string
}

// finishedRetain bounds how many finished sweeps the coordinator remembers —
// same spirit as the tracer ring: recent history, never growth.
const finishedRetain = 8

// sweepState is one registered sweep's mutable ledger; all fields are
// guarded by Coordinator.mu except done/report/err, which are written once
// before done closes.
type sweepState struct {
	id     string
	sw     Sweep
	info   sweepInfo
	chunks []chunkState
	// remaining counts chunks not yet done; the sweep finishes at zero.
	remaining int
	// resumed counts points restored from blobs a previous coordinator's
	// workers published — the crash-recovery path.
	resumed int
	start   time.Time
	// refs counts Run callers attached to this sweep; the state unregisters
	// when the last one leaves.
	refs int

	workerPoints map[string]int
	workerBusy   map[string]time.Duration

	// sweepSpan brackets the sweep's whole fleet lifetime — registration to
	// assembled report — on the sweep's tracer; chunkSpans[i] brackets chunk
	// i from its first grant to its accepted completion. Chunk spans are the
	// cross-process trace parents: their IDs ride in lease responses, and
	// worker-side spans nest under them in the merged timeline.
	sweepSpan  obs.Span
	chunkSpans []obs.Span
	// pendingSince[i] is when chunk i last became grantable — registration,
	// or the expiry of its last lease. The gap to the next grant is the
	// lease-wait histogram's observation, on the injectable lease clock.
	pendingSince []time.Time

	done   chan struct{}
	report *dse.Report
	err    error
}

type chunkState struct {
	lo, hi int
	done   bool
	leases []*lease // zero or more concurrent holders (stealing)
}

type lease struct {
	id      uint64
	worker  string
	sweepID string
	chunk   int
	granted time.Time
	expires time.Time
}

// NewCoordinator builds a Coordinator. A nil Shared is a wiring bug and
// panics.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Shared == nil {
		panic("fleet: CoordinatorConfig.Shared is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.WaitHint <= 0 {
		cfg.WaitHint = 200 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Registry == nil {
		cfg.Registry = prom.NewRegistry()
	}
	c := &Coordinator{
		shared:       cfg.Shared,
		ttl:          cfg.LeaseTTL,
		waitHint:     cfg.WaitHint,
		now:          cfg.Now,
		logger:       cfg.Logger,
		onChunkEvent: cfg.OnChunkEvent,
		sweeps:       make(map[string]*sweepState),
		leases:       make(map[uint64]*lease),
		workers:      make(map[string]time.Time),
		finished:     make(map[string][]*obs.Fragment),
	}
	c.metrics = newCoordMetrics(cfg.Registry, c)
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /fleet/v1/sweep", c.handleSweep)
	c.mux.HandleFunc("POST /fleet/v1/lease", c.handleLease)
	c.mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /fleet/v1/complete", c.handleComplete)
	return c
}

// ServeHTTP exposes the /fleet/v1/ protocol. The mux matches full paths, so
// the Coordinator mounts directly under "/fleet/" on a parent mux or serves
// standalone.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Run registers the sweep and blocks until every chunk is completed and the
// Report is assembled from the published blobs, or ctx cancels. Restart
// resume is implicit: chunks whose result blobs already sit in the shared
// root (published for a previous coordinator that died mid-sweep) are
// restored, not re-leased, and counted in Report.Resumed. A second Run of an
// identical sweep (same fingerprint) attaches to the first rather than
// duplicating work; each caller gets its own Report copy.
func (c *Coordinator) Run(ctx context.Context, sw Sweep) (*dse.Report, error) {
	if len(sw.Points) == 0 {
		return nil, fmt.Errorf("fleet: sweep has no design points")
	}
	if len(sw.Fingerprint) != sha256.Size {
		return nil, fmt.Errorf("fleet: sweep fingerprint must be %d bytes, got %d", sha256.Size, len(sw.Fingerprint))
	}
	if err := checkServed(sw.Spec.Engine); err != nil {
		return nil, err
	}
	if sw.Explicit && len(sw.Points) > maxExplicitPoints {
		return nil, fmt.Errorf("fleet: explicit sweep has %d points, limit %d (probe rounds are expected to stay small)",
			len(sw.Points), maxExplicitPoints)
	}
	id := hex.EncodeToString(sw.Fingerprint)

	c.mu.Lock()
	if st, ok := c.sweeps[id]; ok {
		st.refs++
		c.mu.Unlock()
		return c.await(ctx, st)
	}
	c.mu.Unlock()

	st := c.buildState(id, sw)

	c.mu.Lock()
	if other, ok := c.sweeps[id]; ok {
		// Lost a registration race to a concurrent identical Run.
		other.refs++
		c.mu.Unlock()
		return c.await(ctx, other)
	}
	c.sweeps[id] = st
	c.order = append(c.order, id)
	finished := st.remaining == 0
	if finished {
		c.finishLocked(st) // every chunk restored from blobs: no worker needed
	}
	c.mu.Unlock()
	c.logger.Info("fleet: sweep registered",
		slog.String("sweep", shortID(id)),
		slog.Int("points", len(sw.Points)),
		slog.Int("chunks", len(st.chunks)),
		slog.Int("resumed_points", st.resumed))
	return c.await(ctx, st)
}

// buildState lays out the sweep's chunks and restores any already-published
// result blobs — the coordinator-restart path. No lock is needed: the state
// is private until registered.
func (c *Coordinator) buildState(id string, sw Sweep) *sweepState {
	n := len(sw.Points)
	csize := sw.ChunkSize
	if csize <= 0 {
		// ~32 chunks regardless of sweep size: enough lease granularity for
		// stealing and crash recovery, few enough that protocol round-trips
		// stay negligible. Deterministic in n, so a restarted coordinator
		// reproduces the same chunk ranges and its restore scan lines up.
		csize = (n + 31) / 32
	}
	st := &sweepState{
		id:           id,
		sw:           sw,
		start:        c.now(),
		refs:         1,
		done:         make(chan struct{}),
		workerPoints: make(map[string]int),
		workerBusy:   make(map[string]time.Duration),
	}
	for lo := 0; lo < n; lo += csize {
		hi := lo + csize
		if hi > n {
			hi = n
		}
		st.chunks = append(st.chunks, chunkState{lo: lo, hi: hi})
	}
	st.remaining = len(st.chunks)
	st.info = sweepInfo{ID: id, Spec: sw.Spec, Points: n, ChunkSize: csize, Chunks: len(st.chunks)}
	if sw.Explicit {
		st.info.PointList = sw.Points
	}
	// The sweep span brackets the whole fleet lifetime of this sweep —
	// registration through assembled report — so a merged timeline's
	// coordinator track covers every moment any worker was active on it.
	st.sweepSpan = sw.Tracer.StartChild(sw.TraceParent, obs.CatFleet, obs.NameSweep)
	st.sweepSpan.SetDetail(shortID(id))
	st.sweepSpan.SetArg(obs.ArgPoints, int64(n))
	st.chunkSpans = make([]obs.Span, len(st.chunks))
	st.pendingSince = make([]time.Time, len(st.chunks))
	for i := range st.pendingSince {
		st.pendingSince[i] = st.start
	}
	for i := range st.chunks {
		ch := &st.chunks[i]
		raw, ok := c.shared.Get(chunkKey(id, i))
		if !ok {
			continue
		}
		idxs, _, err := dse.DecodeChunk(sw.Fingerprint, raw)
		if err != nil || verifyChunkRange(idxs, ch.lo, ch.hi) != nil {
			// Structurally impossible for blobs this sweep's workers wrote
			// (the key embeds the fingerprint): treat as damage, re-evaluate.
			c.shared.Delete(chunkKey(id, i))
			continue
		}
		ch.done = true
		st.remaining--
		st.resumed += ch.hi - ch.lo
		sp := sw.Tracer.StartChild(st.sweepSpan.ID(), obs.CatDSE, obs.NameResume)
		sp.SetArg(obs.ArgPoints, int64(ch.hi-ch.lo))
		sp.End()
	}
	return st
}

// await blocks one Run caller on the sweep's completion.
func (c *Coordinator) await(ctx context.Context, st *sweepState) (*dse.Report, error) {
	select {
	case <-ctx.Done():
		c.release(st)
		return nil, ctx.Err()
	case <-st.done:
		rep, err := st.report, st.err
		c.release(st)
		if err != nil {
			return nil, err
		}
		// Each waiter gets its own Report header over the shared Results,
		// which are read-only once returned (dse.Report).
		out := *rep
		return &out, nil
	}
}

// release detaches one Run caller; the last one out unregisters the sweep
// and revokes its outstanding leases. An abandoned (cancelled) sweep keeps
// its published blobs — they are the resume state of a future rerun.
func (c *Coordinator) release(st *sweepState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st.refs--
	if st.refs > 0 {
		return
	}
	delete(c.sweeps, st.id)
	for i, id := range c.order {
		if id == st.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	for id, l := range c.leases {
		if l.sweepID == st.id {
			delete(c.leases, id)
		}
	}
}

// finishLocked assembles the sweep's Report from the published chunk blobs
// — the same restore discipline as checkpoint resume: every blob is re-read
// (the store verifies its frame), fingerprint-verified, and scattered by
// point index — then publishes it and closes done. On success the blobs are
// deleted: the report now owns the results. Trace fragments workers
// published beside the chunks are collected the same way — decoded,
// verified, retained for the merged timeline; damaged ones counted and
// dropped, never fatal. Called with mu held.
func (c *Coordinator) finishLocked(st *sweepState) {
	sw := st.sw
	parent := st.sweepSpan.ID()
	if parent == 0 {
		parent = sw.TraceParent
	}
	sp := sw.Tracer.StartChild(parent, obs.CatFleet, obs.NameAssemble)
	sp.SetDetail(shortID(st.id))
	sp.SetArg("chunks", int64(len(st.chunks)))
	start := time.Now()
	results := make([]dse.Result, len(sw.Points))
	var err error
	for i := range st.chunks {
		ch := &st.chunks[i]
		raw, ok := c.shared.Get(chunkKey(st.id, i))
		if !ok {
			err = fmt.Errorf("fleet: chunk %d blob vanished before assembly", i)
			break
		}
		idxs, cycles, derr := dse.DecodeChunk(sw.Fingerprint, raw)
		if derr == nil {
			derr = verifyChunkRange(idxs, ch.lo, ch.hi)
		}
		if derr != nil {
			err = fmt.Errorf("fleet: chunk %d blob invalid at assembly: %w", i, derr)
			break
		}
		for k, idx := range idxs {
			results[idx] = dse.Result{Cycles: cycles[k]}
		}
	}
	sp.End()
	c.metrics.assembly.Observe(time.Since(start).Seconds())

	if err != nil {
		st.sweepSpan.End()
		st.err = err
		close(st.done)
		return
	}
	c.collectFragmentsLocked(st)
	method, _ := dse.EngineMethod(sw.Spec.Engine)
	rep := dse.ListReport(method, sw.Points, results)
	rep.Setup = sw.Setup
	rep.Resumed = st.resumed
	rep.Fingerprint = append([]byte(nil), sw.Fingerprint...)
	rep.Batch = sw.Spec.BatchSize
	wall := c.now().Sub(st.start)
	if wall < 0 {
		wall = 0
	}
	rep.Wall = wall
	if n := len(results); n > 0 {
		rep.PerPoint = wall / time.Duration(n)
	}
	names := make([]string, 0, len(st.workerPoints))
	for name := range st.workerPoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		rep.Workers = append(rep.Workers, dse.WorkerTiming{
			Worker: i,
			Points: st.workerPoints[name],
			Busy:   st.workerBusy[name],
		})
	}
	st.report = rep
	for i := range st.chunks {
		c.shared.Delete(chunkKey(st.id, i))
	}
	// Ended only now, so the span covers the fragment collection and report
	// build too: its length is the report's Wall.
	st.sweepSpan.End()
	close(st.done)
}

// collectFragmentsLocked gathers the trace fragments workers published
// beside the sweep's chunk blobs: two deterministic keys per chunk, the
// holder's and a steal's (the shared root's hashed keys cannot be
// enumerated), frame- and
// fingerprint-verified like everything else in the protocol. A damaged or
// foreign blob increments the dropped counter and is discarded — a fragment
// is observability, never correctness. The sweep is remembered as finished
// with its survivors (FIFO-bounded); the store copies are deleted either
// way, the sweep is over. Called with mu held.
func (c *Coordinator) collectFragmentsLocked(st *sweepState) {
	var frags []*obs.Fragment
	for i := range st.chunks {
		for _, key := range []string{fragKey(st.id, i), stolenFragKey(st.id, i)} {
			raw, err := c.shared.Read(key)
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			var frag *obs.Fragment
			if err == nil {
				frag, err = obs.DecodeFragment(st.sw.Fingerprint, raw)
			}
			if err != nil {
				c.metrics.fragDropped.Inc()
				c.logger.Warn("fleet: trace fragment dropped",
					slog.String("sweep", shortID(st.id)),
					slog.Int("chunk", i),
					slog.Any("err", err))
			} else {
				frags = append(frags, frag)
			}
			c.shared.Delete(key)
		}
	}
	if _, seen := c.finished[st.id]; !seen {
		c.finishedOrder = append(c.finishedOrder, st.id)
		for len(c.finishedOrder) > finishedRetain {
			delete(c.finished, c.finishedOrder[0])
			c.finishedOrder = c.finishedOrder[1:]
		}
	}
	c.finished[st.id] = frags
}

// TraceFragments returns the trace fragments retained from a recently
// finished sweep (nil if none, unknown, or evicted). The serving layer
// merges them with its own records into the fleet timeline.
func (c *Coordinator) TraceFragments(sweepID string) []*obs.Fragment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*obs.Fragment(nil), c.finished[sweepID]...)
}

// verifyChunkRange checks a decoded blob covers exactly [lo, hi) in order —
// the shape every worker publishes, and the only shape assembly accepts.
func verifyChunkRange(idxs []int, lo, hi int) error {
	if len(idxs) != hi-lo {
		return fmt.Errorf("fleet: chunk has %d entries, want %d", len(idxs), hi-lo)
	}
	for k, idx := range idxs {
		if idx != lo+k {
			return fmt.Errorf("fleet: chunk entry %d has index %d, want %d", k, idx, lo+k)
		}
	}
	return nil
}

// --- lease state machine -------------------------------------------------

// expireLocked lazily revokes leases whose TTL passed — run at the top of
// every protocol call, so expiry needs no timer goroutine and is fully
// deterministic under an injected clock. A chunk whose last lease expires
// reverts to pending and will be granted again. Worker last-seen entries
// are pruned once thoroughly stale. Called with mu held.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		c.metrics.expired.Inc()
		if st := c.sweeps[l.sweepID]; st != nil {
			ch := &st.chunks[l.chunk]
			for i, cl := range ch.leases {
				if cl.id == l.id {
					ch.leases = append(ch.leases[:i], ch.leases[i+1:]...)
					break
				}
			}
			if len(ch.leases) == 0 && !ch.done {
				// The chunk is grantable again; its lease wait restarts here.
				st.pendingSince[l.chunk] = now
			}
		}
		c.logger.Warn("fleet: lease expired",
			slog.Uint64("lease", l.id),
			slog.String("worker", l.worker),
			slog.String("sweep", shortID(l.sweepID)),
			slog.Int("chunk", l.chunk))
		if c.onChunkEvent != nil {
			c.onChunkEvent(l.sweepID, l.chunk, l.worker, "expire")
		}
	}
	for wk, seen := range c.workers {
		if now.Sub(seen) > 10*c.ttl {
			delete(c.workers, wk)
		}
	}
}

// grantLocked picks the chunk to lease to worker: the first pending chunk
// in sweep-registration order, else — so idle capacity always shortens the
// straggler tail — a steal of the in-flight chunk whose newest lease is
// oldest, never one the worker already holds. Called with mu held.
func (c *Coordinator) grantLocked(worker string, now time.Time) leaseResponse {
	active := false
	for _, id := range c.order {
		st := c.sweeps[id]
		if st == nil || st.remaining == 0 {
			continue
		}
		active = true
		for ci := range st.chunks {
			ch := &st.chunks[ci]
			if ch.done || len(ch.leases) > 0 {
				continue
			}
			return c.grantChunkLocked(st, ci, worker, now, false)
		}
	}
	var bestSt *sweepState
	bestCi := -1
	var bestNewest time.Time
	for _, id := range c.order {
		st := c.sweeps[id]
		if st == nil || st.remaining == 0 {
			continue
		}
		for ci := range st.chunks {
			ch := &st.chunks[ci]
			if ch.done || len(ch.leases) == 0 {
				continue
			}
			held := false
			var newest time.Time
			for _, l := range ch.leases {
				if l.worker == worker {
					held = true
					break
				}
				if l.granted.After(newest) {
					newest = l.granted
				}
			}
			if held {
				continue
			}
			if bestCi < 0 || newest.Before(bestNewest) {
				bestSt, bestCi, bestNewest = st, ci, newest
			}
		}
	}
	if bestCi >= 0 {
		c.metrics.stolen.Inc()
		c.logger.Info("fleet: straggler chunk stolen",
			slog.String("sweep", shortID(bestSt.id)),
			slog.Int("chunk", bestCi),
			slog.String("worker", worker))
		return c.grantChunkLocked(bestSt, bestCi, worker, now, true)
	}
	status := "idle"
	if active {
		status = "wait"
	}
	return leaseResponse{Status: status, WaitMillis: c.waitHint.Milliseconds()}
}

func (c *Coordinator) grantChunkLocked(st *sweepState, ci int, worker string, now time.Time, stolen bool) leaseResponse {
	ch := &st.chunks[ci]
	c.leaseSeq++
	l := &lease{
		id:      c.leaseSeq,
		worker:  worker,
		sweepID: st.id,
		chunk:   ci,
		granted: now,
		expires: now.Add(c.ttl),
	}
	if !stolen {
		// This grant ends the chunk's published-but-unleased wait: from
		// registration (or its last lease's expiry) to now, on the lease
		// clock. Steals don't count — the chunk was in flight the whole time.
		if wait := now.Sub(st.pendingSince[ci]); wait >= 0 {
			c.metrics.leaseWait.Observe(wait.Seconds())
		}
	}
	if st.chunkSpans[ci].ID() == 0 {
		// First grant opens the coordinator-side chunk span — the trace
		// parent every worker span of this chunk nests under. It stays open
		// across re-leases and steals until the accepted completion.
		sp := st.sw.Tracer.StartChild(st.sweepSpan.ID(), obs.CatFleet, obs.NameChunk)
		sp.SetDetail(fmt.Sprintf("chunk %d", ci))
		sp.SetArg(obs.ArgPoints, int64(ch.hi-ch.lo))
		st.chunkSpans[ci] = sp
	}
	ch.leases = append(ch.leases, l)
	c.leases[l.id] = l
	c.metrics.leased.Inc()
	if c.onChunkEvent != nil {
		kind := "lease"
		if stolen {
			kind = "steal"
		}
		c.onChunkEvent(st.id, ci, worker, kind)
	}
	return leaseResponse{
		Status:          "lease",
		SweepID:         st.id,
		Lease:           l.id,
		Chunk:           ci,
		Lo:              ch.lo,
		Hi:              ch.hi,
		TTLMillis:       c.ttl.Milliseconds(),
		Stolen:          stolen,
		TraceID:         st.id,
		TraceParent:     st.chunkSpans[ci].ID(),
		CoordClockNanos: st.sw.Tracer.Now().Nanoseconds(),
	}
}

// liveWorkers counts workers seen within two lease TTLs — the liveness
// gauge's definition of "live".
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	n := 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= 2*c.ttl {
			n++
		}
	}
	return n
}

// liveWorkerNames lists the live workers sorted by id — the per-worker
// liveness gauge's label set.
func (c *Coordinator) liveWorkerNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var names []string
	for wk, seen := range c.workers {
		if now.Sub(seen) <= 2*c.ttl {
			names = append(names, wk)
		}
	}
	sort.Strings(names)
	return names
}

func (c *Coordinator) activeSweeps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sweeps)
}

// Status is one coordinator snapshot for aggregate debug endpoints: live
// workers (seen within two lease TTLs, sorted by id), active sweeps, and
// outstanding leases.
type Status struct {
	Workers      []string `json:"workers"`
	ActiveSweeps int      `json:"active_sweeps"`
	Leases       int      `json:"leases"`
}

// Status snapshots the coordinator for rpserved's GET /debug/status.
func (c *Coordinator) Status() Status {
	workers := c.liveWorkerNames()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Workers:      workers,
		ActiveSweeps: len(c.sweeps),
		Leases:       len(c.leases),
	}
}

// --- HTTP handlers -------------------------------------------------------

// maxProtocolBody bounds a protocol request body; every message is a small
// JSON object.
const maxProtocolBody = 1 << 20

// maxExplicitPoints caps an Explicit sweep's point list so the JSON sweep
// info a worker fetches stays comfortably under maxProtocolBody.
const maxExplicitPoints = 2048

func fleetJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func fleetErr(w http.ResponseWriter, status int, format string, args ...any) {
	fleetJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProtocolBody))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		fleetErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	c.mu.Lock()
	st, ok := c.sweeps[id]
	var info sweepInfo
	if ok {
		info = st.info
	}
	c.mu.Unlock()
	if !ok {
		fleetErr(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	fleetJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		fleetErr(w, http.StatusBadRequest, "lease request wants a worker id")
		return
	}
	c.mu.Lock()
	now := c.now()
	c.expireLocked(now)
	c.workers[req.Worker] = now
	resp := c.grantLocked(req.Worker, now)
	c.mu.Unlock()
	fleetJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	now := c.now()
	c.expireLocked(now)
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	l, ok := c.leases[req.Lease]
	if ok {
		l.expires = now.Add(c.ttl)
	}
	c.mu.Unlock()
	if !ok {
		// Gone, not NotFound: the lease existed and its TTL passed (or its
		// chunk completed). The worker's chunk may already be re-leased; it
		// should finish and complete anyway — completion is content-verified
		// and first-writer-wins, so late work is never wrong, just possibly
		// redundant.
		fleetJSON(w, http.StatusGone, heartbeatResponse{Status: "expired"})
		return
	}
	fleetJSON(w, http.StatusOK, heartbeatResponse{Status: "ok", TTLMillis: c.ttl.Milliseconds()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	// Federate the worker's self-reported summary whether or not this
	// completion wins: a duplicate finisher of a stolen chunk did real work,
	// and the per-worker families describe throughput, not attribution.
	if req.Worker != "" {
		c.metrics.workerChunks.With(req.Worker).Inc()
		c.metrics.workerPoints.With(req.Worker).Add(float64(req.Points))
		c.metrics.workerEval.With(req.Worker).Add(req.EvalSeconds)
		c.metrics.workerPublish.With(req.Worker).Add(req.PublishSeconds)
	}
	st, ok := c.sweeps[req.SweepID]
	_, finished := c.finished[req.SweepID]
	if ok {
		finished = st.report != nil
	}
	if finished {
		// A late finisher of an already assembled sweep — typically the
		// losing holder of a stolen chunk. Assembly deleted the sweep's
		// blobs before this worker published its copies, so its
		// announcement is what removes them.
		c.shared.Delete(chunkKey(req.SweepID, req.Chunk))
		c.shared.Delete(fragKey(req.SweepID, req.Chunk))
		c.shared.Delete(stolenFragKey(req.SweepID, req.Chunk))
		delete(c.leases, req.Lease)
		c.metrics.completed.With("duplicate").Inc()
		fleetJSON(w, http.StatusOK, completeResponse{Status: "duplicate"})
		return
	}
	if !ok {
		fleetErr(w, http.StatusNotFound, "unknown sweep %q", req.SweepID)
		return
	}
	if req.Chunk < 0 || req.Chunk >= len(st.chunks) {
		fleetErr(w, http.StatusBadRequest, "sweep %s has no chunk %d", shortID(st.id), req.Chunk)
		return
	}
	ch := &st.chunks[req.Chunk]
	if ch.done {
		// First-writer-wins: a second completion of a stolen (or re-leased)
		// chunk is an idempotent acknowledgment, never an error.
		delete(c.leases, req.Lease)
		c.metrics.completed.With("duplicate").Inc()
		fleetJSON(w, http.StatusOK, completeResponse{Status: "duplicate"})
		return
	}
	// Completion is a content-addressed pointer: verify the blob the same
	// way assembly will. A missing or invalid blob leaves the chunk as-is.
	key := chunkKey(st.id, req.Chunk)
	raw, blobOK := c.shared.Get(key)
	if !blobOK {
		fleetErr(w, http.StatusConflict, "chunk %d blob not published", req.Chunk)
		return
	}
	idxs, _, err := dse.DecodeChunk(st.sw.Fingerprint, raw)
	if err == nil {
		err = verifyChunkRange(idxs, ch.lo, ch.hi)
	}
	if err != nil {
		c.shared.Delete(key)
		fleetErr(w, http.StatusConflict, "chunk %d blob rejected: %v", req.Chunk, err)
		return
	}
	// Accept — even from an expired or unknown lease: the blob verified, and
	// determinism makes late work byte-identical to what a live lease would
	// have published.
	if l, lok := c.leases[req.Lease]; lok && l.sweepID == st.id && l.chunk == req.Chunk {
		st.workerBusy[l.worker] += now.Sub(l.granted)
	}
	if req.Worker != "" {
		st.workerPoints[req.Worker] += ch.hi - ch.lo
	}
	ch.done = true
	st.chunkSpans[req.Chunk].End()
	for _, l := range ch.leases {
		delete(c.leases, l.id)
	}
	ch.leases = nil
	st.remaining--
	c.metrics.completed.With("first").Inc()
	if st.remaining == 0 {
		c.finishLocked(st)
	}
	fleetJSON(w, http.StatusOK, completeResponse{Status: "ok"})
}

// shortID abbreviates a sweep id (hex fingerprint) for logs and spans.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
