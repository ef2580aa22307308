package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// trace_test.go — the distributed-tracing proofs: tracing a fleet sweep
// changes no result byte, the merged timeline covers the sweep's wall clock
// with per-worker tracks correctly parented across processes, lease-wait is
// observed on the injectable clock, and fragments published before a
// coordinator crash still merge after resume.

// TestFleetTracingDifferential runs the same sweep traced and untraced and
// requires both reports bit-identical to the single-process golden — tracing
// is observability, never behavior. Runs under -race in CI like the rest of
// the package.
func TestFleetTracingDifferential(t *testing.T) {
	env := testFleetEnv(t)
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		t.Run(name, func(t *testing.T) {
			shared, err := store.OpenShared(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			coord := NewCoordinator(CoordinatorConfig{
				Shared:   shared,
				LeaseTTL: 10 * time.Second,
				WaitHint: 2 * time.Millisecond,
			})
			srv := httptest.NewServer(coord)
			defer srv.Close()
			wctx, stopWorkers := context.WithCancel(context.Background())
			defer stopWorkers()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
					CoordinatorURL: srv.URL,
					Shared:         shared,
					Concurrency:    2,
					ID:             fmt.Sprintf("tw%d", i),
					PollInterval:   2 * time.Millisecond,
				}))
			}
			sw := testSweep(env, "graph")
			if traced {
				sw.Tracer = obs.NewTracer(4096)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := coord.Run(ctx, sw)
			stopWorkers()
			wg.Wait()
			if err != nil {
				t.Fatalf("fleet sweep: %v", err)
			}
			sameSweepResults(t, rep, env.golden["graph"])
			id := sweepID(sw)
			frags := coord.TraceFragments(id)
			if traced && len(frags) == 0 {
				t.Error("traced sweep retained no fragments")
			}
			if !traced && len(frags) != 0 {
				t.Errorf("untraced sweep retained %d fragments, want none", len(frags))
			}
			for i := 0; i < 4; i++ {
				if _, ok := shared.Get(fragKey(id, i)); ok {
					t.Errorf("fragment blob %d survived assembly", i)
				}
			}
		})
	}
}

// coverage returns the union of all span intervals in the timeline — how
// much of the merged timebase is covered by at least one span.
func coverage(tl *obs.Timeline) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, r := range tl.Flatten() {
		ivs = append(ivs, iv{r.Start, r.Start + r.Dur})
	}
	if len(ivs) == 0 {
		return 0
	}
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total time.Duration
	end := ivs[0].lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo > end {
			total += v.hi - v.lo
		} else {
			total += v.hi - end
		}
		end = v.hi
	}
	return total
}

// TestFleetMergedTimelineCoverage is the acceptance bar across processes: a
// two-worker traced sweep merges into a timeline with one track per worker,
// worker spans parented under the coordinator's chunk spans, covering at
// least 95% of the assembled Report.Wall. A barrier in onEvaluated forces
// both workers to evaluate at least one chunk first, and a steal that
// evaluates a chunk after its first evaluator waits for that evaluator's
// completion, so each worker wins a completion — and publishes its fragment
// before assembly: two worker tracks are deterministic, not racy.
func TestFleetMergedTimelineCoverage(t *testing.T) {
	env := testFleetEnv(t)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: 30 * time.Second,
		WaitHint: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(coord)
	defer srv.Close()

	// Rendezvous: each worker blocks after its first evaluation until the
	// other has evaluated too — both end up owning at least one chunk. No
	// steal is granted before the rendezvous (every chunk is pending or held
	// by a blocked evaluator), so those first evaluations are of distinct
	// chunks. Afterwards a worker evaluating a chunk the other evaluated
	// first holds back until that first evaluator's completion is accepted,
	// so the first evaluator wins the chunk.
	var barrier sync.WaitGroup
	barrier.Add(2)
	var firstMu sync.Mutex
	firstBy := make(map[int]string) // chunk → worker that evaluated it first
	mkHook := func(worker string) func(string, int) error {
		var once sync.Once
		return func(sweep string, chunk int) error {
			firstMu.Lock()
			first, seen := firstBy[chunk]
			if !seen {
				firstBy[chunk] = worker
			}
			firstMu.Unlock()
			if seen && first != worker {
				for !coord.chunkAccepted(sweep, chunk) {
					time.Sleep(time.Millisecond)
				}
				return nil
			}
			once.Do(func() { barrier.Done(); barrier.Wait() })
			return nil
		}
	}
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("mw%d", i)
		startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
			CoordinatorURL: srv.URL,
			Shared:         shared,
			Concurrency:    2,
			ID:             id,
			PollInterval:   2 * time.Millisecond,
			onEvaluated:    mkHook(id),
		}))
	}

	sw := testSweep(env, "graph")
	sw.Tracer = obs.NewTracer(4096)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := coord.Run(ctx, sw)
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("fleet sweep: %v", err)
	}
	sameSweepResults(t, rep, env.golden["graph"])

	local := sw.Tracer.Snapshot()
	frags := coord.TraceFragments(sweepID(sw))
	tl := obs.MergeTimeline("coord", local, frags)
	if len(tl.Tracks) != 3 {
		for _, tr := range tl.Tracks {
			t.Logf("track %q: %d records", tr.Name, len(tr.Records))
		}
		t.Fatalf("merged %d tracks, want coord + 2 workers", len(tl.Tracks))
	}

	// Every worker evaluate span must parent under a coordinator chunk span:
	// the cross-process context propagated through the lease grant.
	chunkIDs := make(map[uint64]bool)
	for _, r := range tl.Tracks[0].Records {
		if r.Cat == obs.CatFleet && r.Name == obs.NameChunk {
			chunkIDs[r.ID] = true
		}
	}
	if len(chunkIDs) != 4 {
		t.Errorf("coordinator track has %d chunk spans, want 4", len(chunkIDs))
	}
	for _, trk := range tl.Tracks[1:] {
		evals := 0
		for _, r := range trk.Records {
			if r.Cat == obs.CatFleet && r.Name == obs.NameEvaluate {
				evals++
				if !chunkIDs[r.Parent] {
					t.Errorf("track %q: evaluate span %#x parented at %#x, not a coordinator chunk span",
						trk.Name, r.ID, r.Parent)
				}
			}
		}
		if evals == 0 {
			t.Errorf("track %q has no evaluate spans", trk.Name)
		}
	}

	// The acceptance bar: merged spans cover >= 95% of the report's wall.
	if cov := coverage(tl); float64(cov) < 0.95*float64(rep.Wall) {
		t.Errorf("merged timeline covers %v of %v wall (%.1f%%), want >= 95%%",
			cov, rep.Wall, 100*float64(cov)/float64(rep.Wall))
	}
}

// chunkAccepted reports whether the coordinator has accepted a completion of
// the sweep's chunk — true too once the sweep is assembled, failed or gone,
// so a caller polling it never outlives the sweep.
func (c *Coordinator) chunkAccepted(sweepID string, chunk int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.sweeps[sweepID]
	return !ok || st.report != nil || st.err != nil || st.chunks[chunk].done
}

// leaseWaitCount reads the lease-wait histogram's observation count off
// the coordinator's exposition.
func (e *protoEnv) leaseWaitCount() uint64 {
	e.t.Helper()
	var buf bytes.Buffer
	e.reg.WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "rpstacks_fleet_lease_wait_seconds_count "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				e.t.Fatal(err)
			}
			return n
		}
	}
	e.t.Fatal("no lease-wait count in the coordinator's exposition")
	return 0
}

// TestFleetLeaseWaitHistogram drives the lease protocol on the injected clock
// and checks the published-but-unleased wait lands in the histogram: once per
// first grant with the time since registration, again after an expiry makes a
// chunk grantable anew — and never for a steal.
func TestFleetLeaseWaitHistogram(t *testing.T) {
	e := newProtoEnv(t, 10*time.Second, 8, 2) // 4 chunks
	e.clock.Advance(3 * time.Second)
	if g := e.mustLease("w1"); g.Stolen {
		t.Fatalf("first grant stolen: %+v", g)
	}
	if got := e.leaseWaitCount(); got != 1 {
		t.Fatalf("leaseWait count after first grant = %d, want 1", got)
	}
	// Three more first-grants drain the pending chunks...
	for i := 0; i < 3; i++ {
		e.mustLease("w1")
	}
	if got := e.leaseWaitCount(); got != 4 {
		t.Fatalf("leaseWait count after draining = %d, want 4", got)
	}
	// ...so the next lease from another worker is a steal: no wait observed —
	// the chunk never went back to pending.
	if g := e.mustLease("w2"); !g.Stolen {
		t.Fatalf("expected a stolen lease, got %+v", g)
	}
	if got := e.leaseWaitCount(); got != 4 {
		t.Errorf("leaseWait count after steal = %d, want still 4", got)
	}

	// Expire every lease: chunks revert to pending at expiry time, and the
	// next grant observes a fresh (zero) wait — a fifth observation.
	e.clock.Advance(11 * time.Second)
	if g := e.mustLease("w3"); g.Stolen {
		t.Fatalf("expected a fresh re-grant after expiry, got %+v", g)
	}
	if got := e.leaseWaitCount(); got != 5 {
		t.Errorf("leaseWait count after expiry re-grant = %d, want 5", got)
	}
}

// TestFleetFragmentAfterCoordinatorResume crashes the coordinator after a
// worker published two chunks (and their trace fragments), then kills the
// worker too. The resumed coordinator restores the chunks from blobs, a
// healthy worker finishes the rest, and the dead worker's fragments — still
// sitting in the store — must merge into the final timeline.
func TestFleetFragmentAfterCoordinatorResume(t *testing.T) {
	env := testFleetEnv(t)
	shared, err := store.OpenShared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep(env, "graph")
	sw.Tracer = obs.NewTracer(4096)
	id := sweepID(sw)

	coord1 := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: time.Hour,
		WaitHint: 2 * time.Millisecond,
	})
	srv1 := httptest.NewServer(coord1)
	ctx1, crashCoord := context.WithCancel(context.Background())
	resCh := make(chan error, 1)
	go func() {
		_, err := coord1.Run(ctx1, sw)
		resCh <- err
	}()
	crashErr := errors.New("injected worker crash")
	var evals atomic.Int32
	crasher := NewWorker(WorkerConfig{
		CoordinatorURL: srv1.URL,
		Shared:         shared,
		Concurrency:    1,
		ID:             "victim",
		PollInterval:   2 * time.Millisecond,
		onEvaluated: func(string, int) error {
			if evals.Add(1) >= 3 {
				return crashErr
			}
			return nil
		},
	})
	if err := crasher.Run(context.Background()); !errors.Is(err, crashErr) {
		t.Fatalf("phase-1 worker: %v, want injected crash", err)
	}
	crashCoord()
	if err := <-resCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed coordinator Run = %v, want context.Canceled", err)
	}
	srv1.Close()

	fragsSurviving := 0
	for i := 0; i < 4; i++ {
		if _, ok := shared.Get(fragKey(id, i)); ok {
			fragsSurviving++
		}
	}
	if fragsSurviving != 2 {
		t.Fatalf("%d fragment blobs survive the crash, want exactly 2", fragsSurviving)
	}

	// Phase 2: fresh coordinator, fresh tracer (a new epoch — the dead
	// worker's syncs reference the old one), healthy worker.
	sw2 := testSweep(env, "graph")
	sw2.Tracer = obs.NewTracer(4096)
	coord2 := NewCoordinator(CoordinatorConfig{
		Shared:   shared,
		LeaseTTL: 10 * time.Second,
		WaitHint: 2 * time.Millisecond,
	})
	srv2 := httptest.NewServer(coord2)
	defer srv2.Close()
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	var wg sync.WaitGroup
	startWorker(t, wctx, &wg, NewWorker(WorkerConfig{
		CoordinatorURL: srv2.URL,
		Shared:         shared,
		Concurrency:    2,
		ID:             "rescuer",
		PollInterval:   2 * time.Millisecond,
	}))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	rep, err := coord2.Run(ctx2, sw2)
	stopWorkers()
	wg.Wait()
	if err != nil {
		t.Fatalf("resumed fleet sweep: %v", err)
	}
	sameSweepResults(t, rep, env.golden["graph"])
	if rep.Resumed != 6 {
		t.Errorf("Resumed = %d points, want 6", rep.Resumed)
	}

	frags := coord2.TraceFragments(id)
	byProcess := make(map[string]int)
	for _, f := range frags {
		byProcess[f.Process]++
	}
	if byProcess["victim"] != 2 {
		t.Errorf("resumed sweep merged %d fragments from the dead worker, want its 2 published ones (got %v)",
			byProcess["victim"], byProcess)
	}
	if byProcess["rescuer"] != 2 {
		t.Errorf("rescuer fragments = %d, want 2 (got %v)", byProcess["rescuer"], byProcess)
	}
	// The dead worker's stale-epoch fragments still merge into the timeline:
	// MergeTimeline normalizes its track by the freshest sync it has, and the
	// global re-base keeps every timestamp non-negative.
	tl := obs.MergeTimeline("coord", sw2.Tracer.Snapshot(), frags)
	if len(tl.Tracks) != 3 {
		t.Fatalf("merged %d tracks, want coord + victim + rescuer", len(tl.Tracks))
	}
	for _, r := range tl.Flatten() {
		if r.Start < 0 {
			t.Errorf("span %q starts at %v after resume merge; want non-negative", r.Name, r.Start)
		}
	}
}

// TestFleetCorruptFragmentCounted flips one byte of a published fragment
// object. The store frame rejects it, and assembly must count it as a
// dropped fragment, not mistake it for one that was never published; the
// sweep itself is unaffected.
func TestFleetCorruptFragmentCounted(t *testing.T) {
	e := newProtoEnv(t, time.Hour, 6, 2) // 3 chunks
	var grants []leaseResponse
	for i := 0; i < 3; i++ {
		g := e.mustLease("w1")
		e.publish(g.Lo, g.Hi, g.Chunk)
		e.publishFragment("w1", g.Chunk)
		grants = append(grants, g)
	}
	path := e.objectPath(fragKey(e.id, 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, g := range grants {
		if st, resp := e.complete("w1", g.Lease, g.Chunk); st != http.StatusOK || resp.Status != "ok" {
			t.Fatalf("chunk %d completion: HTTP %d %q", g.Chunk, st, resp.Status)
		}
	}
	e.finish()
	if got := e.coord.metrics.fragDropped.Value(); got != 1 {
		t.Errorf("fragments dropped = %v, want 1", got)
	}
	if got := len(e.coord.TraceFragments(e.id)); got != 2 {
		t.Errorf("retained %d fragments, want the 2 intact ones", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt fragment object survived assembly: %v", err)
	}
}
