package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// memStore is an in-memory journal.Store for tests — the same Get/Put
// surface the durable artifact store exposes, without the disk.
type memStore struct {
	mu      sync.Mutex
	m       map[string][]byte
	puts    int
	failPut bool
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Get(key string) ([]byte, time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.m[key]
	return raw, 0, ok
}

func (s *memStore) Put(key string, payload []byte, cost time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.failPut {
		return errors.New("injected put failure")
	}
	s.m[key] = append([]byte(nil), payload...)
	return nil
}

// journalKeys counts the store's journal entries.
func (s *memStore) journalKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.m {
		if strings.HasPrefix(k, "journal|") {
			n++
		}
	}
	return n
}

func (s *memStore) set(key string, payload []byte) {
	s.mu.Lock()
	s.m[key] = payload
	s.mu.Unlock()
}

// testClock is a settable clock for Options.Now.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func chunkSpan(points int64) obs.Record {
	return obs.Record{Cat: obs.CatDSE, Name: obs.NameChunk, Arg: points}
}

// drain reads a subscription until its channel closes.
func drain(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	var evs []Event
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-timeout:
			t.Fatalf("subscription never closed; got %d events", len(evs))
		}
	}
}

// TestJournalRecordLifecycle walks one job through the full surface: spans
// accumulate stage timings, cache outcomes and fleet chunks on the record;
// fleet lease notifications count steals and expiries; JobFinished merges
// the terminal summary and stamps the distinct fleet worker count.
func TestJournalRecordLifecycle(t *testing.T) {
	clock := newTestClock()
	j := New(Options{ProgressInterval: -1, Now: clock.Now})

	j.JobQueued("job-1", Record{Engine: "rpstacks", Workload: "429.mcf", GridPoints: 12})
	clock.Advance(100 * time.Millisecond)
	j.JobRunning("job-1")
	j.ObserveSpan("job-1", obs.Record{Cat: obs.CatJob, Name: obs.NameQueueWait, Dur: 100 * time.Millisecond})
	j.ObserveSpan("job-1", obs.Record{Cat: obs.CatJob, Name: obs.NameSetup, Dur: 40 * time.Millisecond})
	j.ObserveSpan("job-1", obs.Record{Cat: obs.CatCache, Name: "mem-hit"})
	j.ObserveSpan("job-1", obs.Record{Cat: obs.CatCache, Name: "build"})
	clock.Advance(time.Second)
	j.ObserveSpan("job-1", chunkSpan(6))
	// A fleet chunk completion counts on the record and advances the meter.
	j.ObserveSpan("job-1", obs.Record{Cat: obs.CatFleet, Name: obs.NameChunk, Arg: 6})
	j.FleetEvent("job-1", FleetLease, 0, "w0")
	j.FleetEvent("job-1", FleetSteal, 1, "w1")
	j.FleetEvent("job-1", FleetExpire, 1, "w0")
	clock.Advance(time.Second)
	j.JobFinished("job-1", Finish{
		Status: "done", TraceDigest: "abc123", Workers: 2, SweepMS: 2000,
		SetupCached: true, AuditStatus: "ok",
		Search: &SearchStats{Mode: "greedy", Probes: 7, Converged: true},
	})

	rec, ok := j.Get("job-1")
	if !ok {
		t.Fatal("finished job has no record")
	}
	if rec.Status != "done" || rec.Engine != "rpstacks" || rec.Workload != "429.mcf" {
		t.Errorf("record identity wrong: %+v", rec)
	}
	if rec.QueueMS != 100 || rec.SetupMS != 40 {
		t.Errorf("stage timings queue=%g setup=%g, want 100/40", rec.QueueMS, rec.SetupMS)
	}
	if rec.CacheMemHits != 1 || rec.CacheBuilds != 1 || rec.CacheDiskHits != 0 {
		t.Errorf("cache counts %d/%d/%d, want 1 mem-hit, 1 build", rec.CacheMemHits, rec.CacheDiskHits, rec.CacheBuilds)
	}
	if rec.FleetChunks != 1 || rec.FleetSteals != 1 || rec.FleetExpiries != 1 {
		t.Errorf("fleet counts chunks=%d steals=%d expiries=%d, want 1/1/1", rec.FleetChunks, rec.FleetSteals, rec.FleetExpiries)
	}
	if rec.FleetWorkers != 2 {
		t.Errorf("fleet workers %d, want 2 distinct (w0, w1)", rec.FleetWorkers)
	}
	if rec.TraceDigest != "abc123" || !rec.SetupCached || rec.AuditStatus != "ok" || rec.Workers != 2 || rec.SweepMS != 2000 {
		t.Errorf("terminal summary not merged: %+v", rec)
	}
	if rec.Search == nil || rec.Search.Probes != 7 || !rec.Search.Converged {
		t.Errorf("search stats not merged: %+v", rec.Search)
	}
	if rec.Finished.Sub(rec.Submitted) != 2100*time.Millisecond {
		t.Errorf("finished-submitted = %v, want 2.1s on the injected clock", rec.Finished.Sub(rec.Submitted))
	}

	// The retained event log: queued, running, two progress (6 then 12 of
	// 12 — negative interval emits every chunk), three fleet, done; sequence
	// numbers strictly increasing from 1.
	types := make([]string, len(rec.Events))
	for i, ev := range rec.Events {
		types[i] = ev.Type
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Job != "job-1" {
			t.Errorf("event %d job %q, want job-1", i, ev.Job)
		}
	}
	want := []string{EventQueued, EventRunning, EventProgress, EventProgress, EventFleet, EventFleet, EventFleet, EventDone}
	if len(types) != len(want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types %v, want %v", types, want)
		}
	}
	if p := rec.Events[3]; p.Done != 12 || p.Total != 12 || p.Percent != 100 {
		t.Errorf("final progress event %+v, want 12/12 at 100%%", p)
	}
	if f := rec.Events[4]; f.Fleet != FleetLease || f.Chunk == nil || *f.Chunk != 0 || f.Worker != "w0" {
		t.Errorf("lease event %+v, want lease of chunk 0 by w0 (chunk 0 must survive omitempty)", f)
	}
	if d := rec.Events[7]; d.Status != "done" {
		t.Errorf("terminal event %+v, want status done", d)
	}

	// List serves the record without its event log.
	recs := j.List(Query{})
	if len(recs) != 1 || recs[0].JobID != "job-1" || recs[0].Events != nil {
		t.Errorf("List = %+v, want one event-free record", recs)
	}
}

// TestJournalSubscribeLiveAndReplay covers the stream contract: a live
// subscriber sees every event then a close at the terminal one; a
// Last-Event-ID reconnect (after=N) replays only what was missed; the
// retained log serves finished jobs through an already-closed channel.
func TestJournalSubscribeLiveAndReplay(t *testing.T) {
	clock := newTestClock()
	j := New(Options{ProgressInterval: -1, Now: clock.Now})

	j.JobQueued("job-1", Record{Engine: "graph", GridPoints: 4})
	live, ok := j.Subscribe("job-1", 0)
	if !ok {
		t.Fatal("subscribe on a queued job failed")
	}
	j.JobRunning("job-1")
	j.ObserveSpan("job-1", chunkSpan(4))
	j.JobFinished("job-1", Finish{Status: "done"})

	evs := drain(t, live)
	if len(evs) != 4 || evs[0].Type != EventQueued || evs[3].Type != EventDone {
		t.Fatalf("live stream %+v, want queued/running/progress/done", evs)
	}

	// Reconnect from the middle: only seq > 2 replays.
	resumed, ok := j.Subscribe("job-1", 2)
	if !ok {
		t.Fatal("replay subscribe failed")
	}
	evs = drain(t, resumed)
	if len(evs) != 2 || evs[0].Seq != 3 || evs[1].Type != EventDone {
		t.Fatalf("replay after seq 2 = %+v, want seqs 3 and 4 ending in done", evs)
	}

	// After the terminal seq there is nothing left: an immediately-closed
	// empty stream, not an error.
	empty, ok := j.Subscribe("job-1", 4)
	if !ok {
		t.Fatal("post-terminal subscribe failed")
	}
	if evs := drain(t, empty); len(evs) != 0 {
		t.Fatalf("replay after the terminal seq = %+v, want nothing", evs)
	}

	if _, ok := j.Subscribe("no-such-job", 0); ok {
		t.Error("subscribe on an unknown job reported success")
	}
}

// TestJournalSlowReaderDrops proves a stalled subscriber never blocks the
// job: events beyond its buffer are dropped and counted.
func TestJournalSlowReaderDrops(t *testing.T) {
	j := New(Options{ProgressInterval: -1, SubscriberBuffer: 1})
	j.JobQueued("job-1", Record{GridPoints: 100})
	// The queued event is already retained, so the subscriber's buffer
	// (replay + 1) fills after one live event.
	sub, ok := j.Subscribe("job-1", 0)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer sub.Close()
	j.JobRunning("job-1")
	for i := 0; i < 5; i++ {
		j.ObserveSpan("job-1", chunkSpan(1))
	}
	st := j.Stats()
	if st.Dropped == 0 {
		t.Error("no drops counted on a stalled subscriber")
	}
	if st.Subscribers != 1 {
		t.Errorf("subscribers = %d, want 1", st.Subscribers)
	}
	// The job side never blocked: all five chunks landed on the meter.
	j.JobFinished("job-1", Finish{Status: "done"})
	rec, _ := j.Get("job-1")
	if rec.Status != "done" {
		t.Errorf("job status %q, want done despite the stalled subscriber", rec.Status)
	}
}

// TestJournalPersistence round-trips records through a store: a second
// journal over the same store — a restarted process — serves Get, List and
// event replay for jobs it never saw live.
func TestJournalPersistence(t *testing.T) {
	store := newMemStore()
	clock := newTestClock()
	j1 := New(Options{Store: store, ProgressInterval: -1, Now: clock.Now})

	for _, id := range []string{"job-1", "job-2"} {
		j1.JobQueued(id, Record{Engine: "rpstacks", GridPoints: 2})
		j1.JobRunning(id)
		j1.ObserveSpan(id, chunkSpan(2))
		clock.Advance(time.Second)
		j1.JobFinished(id, Finish{Status: "done"})
	}
	if st := j1.Stats(); st.Persisted != 2 {
		t.Fatalf("persisted index %d, want 2", st.Persisted)
	}

	// The restarted journal: same store, empty memory.
	j2 := New(Options{Store: store, ProgressInterval: -1, Now: clock.Now})
	rec, ok := j2.Get("job-2")
	if !ok || rec.Status != "done" || len(rec.Events) == 0 {
		t.Fatalf("restarted Get(job-2) = %+v ok=%v, want the full record with events", rec, ok)
	}
	recs := j2.List(Query{})
	if len(recs) != 2 {
		t.Fatalf("restarted List = %d records, want 2", len(recs))
	}
	// job-2 was submitted later: newest first.
	if recs[0].JobID != "job-2" || recs[1].JobID != "job-1" {
		t.Errorf("restarted List order %s, %s, want job-2 then job-1", recs[0].JobID, recs[1].JobID)
	}
	sub, ok := j2.Subscribe("job-1", 1)
	if !ok {
		t.Fatal("restarted subscribe failed")
	}
	evs := drain(t, sub)
	if len(evs) == 0 || evs[len(evs)-1].Type != EventDone {
		t.Fatalf("restarted replay %+v, want events ending in done", evs)
	}
	for _, ev := range evs {
		if ev.Seq <= 1 {
			t.Errorf("replay after seq 1 delivered seq %d", ev.Seq)
		}
	}

	// Filters work over persisted records too.
	if got := j2.List(Query{Engine: "graph"}); len(got) != 0 {
		t.Errorf("engine filter matched %d records, want 0", len(got))
	}
	if got := j2.List(Query{Status: "done", Limit: 1}); len(got) != 1 {
		t.Errorf("limited list = %d records, want 1", len(got))
	}
}

// runJob walks one job from queued to done, one second of clock time.
func runJob(j *Journal, clock *testClock, id string) {
	j.JobQueued(id, Record{Engine: "rpstacks", GridPoints: 2})
	j.JobRunning(id)
	j.ObserveSpan(id, chunkSpan(2))
	clock.Advance(time.Second)
	j.JobFinished(id, Finish{Status: "done"})
}

// TestJournalRingBounded: with a store, each finished job costs exactly one
// Put, into a ring of Capacity slots, so the store never holds more than
// Capacity journal records. A restarted journal serves the newest Capacity
// records from memory, a reused job ID takes over its old record's slot,
// and an undecodable slot is skipped, then reused.
func TestJournalRingBounded(t *testing.T) {
	store := newMemStore()
	clock := newTestClock()
	opts := Options{Store: store, Capacity: 4, ProgressInterval: -1, Now: clock.Now}
	j1 := New(opts)
	for i := 1; i <= 10; i++ {
		runJob(j1, clock, fmt.Sprintf("job-%02d", i))
	}
	if store.puts != 10 {
		t.Errorf("10 finished jobs made %d Puts, want 10", store.puts)
	}
	if n := store.journalKeys(); n != 4 {
		t.Errorf("store holds %d journal entries, want capacity 4", n)
	}
	if st := j1.Stats(); st.Writes != 10 || st.Persisted != 4 || st.WriteTime <= 0 {
		t.Errorf("stats %+v, want 10 writes with time, 4 persisted", st)
	}

	j2 := New(opts)
	if st := j2.Stats(); st.Records != 4 || st.Persisted != 4 {
		t.Errorf("restarted stats %+v, want 4 records in 4 slots", st)
	}
	for i := 1; i <= 10; i++ {
		id := fmt.Sprintf("job-%02d", i)
		rec, ok := j2.Get(id)
		if want := i > 6; ok != want {
			t.Errorf("restarted Get(%s) ok=%v, want %v", id, ok, want)
		}
		if ok && (rec.Status != "done" || len(rec.Events) == 0) {
			t.Errorf("restarted Get(%s) = %+v, want the done record with events", id, rec)
		}
	}
	var ids []string
	for _, rec := range j2.List(Query{}) {
		ids = append(ids, rec.JobID)
	}
	if got := strings.Join(ids, ","); got != "job-10,job-09,job-08,job-07" {
		t.Errorf("restarted List = %s, want the newest 4, newest first", got)
	}
	sub, ok := j2.Subscribe("job-07", 1)
	if !ok {
		t.Fatal("restarted subscribe failed")
	}
	if evs := drain(t, sub); len(evs) == 0 || evs[0].Seq != 2 || evs[len(evs)-1].Type != EventDone {
		t.Errorf("restarted replay after seq 1 = %+v, want seq 2 on, ending in done", evs)
	}

	// IDs restart per process: the new job-07 replaces the old record,
	// in its slot, and evicts nothing else.
	runJob(j2, clock, "job-07")
	ids = ids[:0]
	for _, rec := range j2.List(Query{}) {
		ids = append(ids, rec.JobID)
	}
	if got := strings.Join(ids, ","); got != "job-07,job-10,job-09,job-08" {
		t.Errorf("List after reusing job-07 = %s, want it once, newest", got)
	}
	if store.puts != 11 || store.journalKeys() != 4 {
		t.Errorf("reused ID: %d Puts and %d journal entries, want 11 and 4", store.puts, store.journalKeys())
	}

	// Damage one slot: the next lifetime skips it and fills it first.
	store.set(slotKey(1), []byte("{not json"))
	j3 := New(opts)
	if st := j3.Stats(); st.Records != 3 || st.Persisted != 3 {
		t.Errorf("stats over a damaged slot %+v, want 3 records in 3 slots", st)
	}
	runJob(j3, clock, "job-11")
	raw, _, _ := store.Get(slotKey(1))
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil || rec.JobID != "job-11" {
		t.Errorf("damaged slot holds %q, want job-11's record", raw)
	}
	if st := j3.Stats(); st.Records != 4 || st.Persisted != 4 || store.journalKeys() != 4 {
		t.Errorf("stats %+v with %d journal entries, want 4 records in 4 slots", st, store.journalKeys())
	}
}

// TestJournalConcurrentFinish finishes jobs from several goroutines while
// readers list them: every job is written once, and the ring stays bounded.
func TestJournalConcurrentFinish(t *testing.T) {
	store := newMemStore()
	j := New(Options{Store: store, Capacity: 4, ProgressInterval: -1})
	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				j.JobQueued(id, Record{GridPoints: 1})
				j.JobRunning(id)
				j.JobFinished(id, Finish{Status: "done"})
				j.List(Query{})
				j.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := j.Stats()
	if st.Writes != workers*perWorker || st.Persisted != 4 || st.Records != 4 {
		t.Errorf("stats %+v, want %d writes and 4 records in 4 slots", st, workers*perWorker)
	}
	if n := store.journalKeys(); n != 4 {
		t.Errorf("store holds %d journal entries, want 4", n)
	}
	// Every slot holds a record the journal still retains.
	for i := 0; i < 4; i++ {
		raw, _, _ := store.Get(slotKey(i))
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if _, ok := j.Get(rec.JobID); !ok {
			t.Errorf("slot %d holds %s, which the journal no longer retains", i, rec.JobID)
		}
	}
}

// TestJournalReloadKeepsNewestOfOneID: two slots holding one job ID (a
// failed overwrite can leave the old record behind) load as one record,
// the newer, and the older's slot is free.
func TestJournalReloadKeepsNewestOfOneID(t *testing.T) {
	store := newMemStore()
	clock := newTestClock()
	opts := Options{Store: store, Capacity: 4, ProgressInterval: -1, Now: clock.Now}
	j1 := New(opts)
	runJob(j1, clock, "job-1")
	runJob(j1, clock, "job-2")
	stale, err := json.Marshal(Record{JobID: "job-2", Status: "failed", Submitted: time.Unix(10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	store.set(slotKey(3), stale)

	j2 := New(opts)
	if rec, _ := j2.Get("job-2"); rec.Status != "done" {
		t.Errorf("reloaded job-2 status %q, want the newer record's done", rec.Status)
	}
	if st := j2.Stats(); st.Records != 2 || st.Persisted != 2 {
		t.Errorf("stats %+v, want 2 records in 2 slots", st)
	}
	runJob(j2, clock, "job-3")
	runJob(j2, clock, "job-4")
	raw, _, _ := store.Get(slotKey(3))
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil || rec.JobID != "job-4" {
		t.Errorf("the stale slot holds %q, want job-4's record", raw)
	}
}

// TestJournalPersistFailure counts failed writes without losing the
// in-memory record.
func TestJournalPersistFailure(t *testing.T) {
	store := newMemStore()
	store.failPut = true
	j := New(Options{Store: store, ProgressInterval: -1})
	j.JobQueued("job-1", Record{GridPoints: 1})
	j.JobRunning("job-1")
	j.JobFinished("job-1", Finish{Status: "failed", Error: "boom"})
	if st := j.Stats(); st.PersistErrors == 0 {
		t.Error("failed Put not counted")
	}
	if rec, ok := j.Get("job-1"); !ok || rec.Error != "boom" {
		t.Errorf("record lost after persist failure: %+v ok=%v", rec, ok)
	}
}

// TestJournalEventCapacity trims the oldest retained events while
// preserving sequence numbers, so Last-Event-ID math still holds.
func TestJournalEventCapacity(t *testing.T) {
	j := New(Options{ProgressInterval: -1, EventCapacity: 4})
	j.JobQueued("job-1", Record{GridPoints: 100})
	j.JobRunning("job-1")
	for i := 0; i < 10; i++ {
		j.ObserveSpan("job-1", chunkSpan(1))
	}
	j.JobFinished("job-1", Finish{Status: "done"})
	rec, _ := j.Get("job-1")
	if len(rec.Events) != 4 {
		t.Fatalf("retained %d events, want capacity 4", len(rec.Events))
	}
	// 13 emits total (queued, running, 10 progress, done): the survivors are
	// seqs 10..13 and the log stays in order.
	for i, ev := range rec.Events {
		if want := uint64(10 + i); ev.Seq != want {
			t.Errorf("retained event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if rec.Events[3].Type != EventDone {
		t.Errorf("last retained event is %s, want done", rec.Events[3].Type)
	}
}

// TestJournalRetentionCapacity drops the oldest finished records once over
// capacity.
func TestJournalRetentionCapacity(t *testing.T) {
	j := New(Options{ProgressInterval: -1, Capacity: 2})
	for _, id := range []string{"a", "b", "c"} {
		j.JobQueued(id, Record{GridPoints: 1})
		j.JobRunning(id)
		j.JobFinished(id, Finish{Status: "done"})
	}
	if _, ok := j.Get("a"); ok {
		t.Error("oldest record survived past capacity without a store")
	}
	if _, ok := j.Get("c"); !ok {
		t.Error("newest record evicted")
	}
	if st := j.Stats(); st.Records != 2 {
		t.Errorf("records = %d, want 2", st.Records)
	}
}

// TestJournalDiscard forgets a load-shed job entirely.
func TestJournalDiscard(t *testing.T) {
	j := New(Options{})
	j.JobQueued("job-1", Record{GridPoints: 1})
	j.Discard("job-1")
	if _, ok := j.Get("job-1"); ok {
		t.Error("discarded job still has a record")
	}
}

// TestJournalNilIsDisabled: every method on a nil *Journal is a safe no-op —
// the property the serve differential test builds on.
func TestJournalNilIsDisabled(t *testing.T) {
	var j *Journal
	j.JobQueued("x", Record{})
	j.JobRunning("x")
	j.ObserveSpan("x", chunkSpan(1))
	j.FleetEvent("x", FleetLease, 0, "w")
	j.JobFinished("x", Finish{Status: "done"})
	j.Discard("x")
	if _, ok := j.Get("x"); ok {
		t.Error("nil journal returned a record")
	}
	if recs := j.List(Query{}); recs != nil {
		t.Errorf("nil journal listed %v", recs)
	}
	if _, ok := j.Subscribe("x", 0); ok {
		t.Error("nil journal accepted a subscription")
	}
	if st := j.Stats(); st != (Stats{}) {
		t.Errorf("nil journal stats %+v, want zero", st)
	}
}

// TestEventJSONShape pins the wire schema both SSE and NDJSON consumers
// parse: field names, omitempty behavior, and chunk 0 surviving.
func TestEventJSONShape(t *testing.T) {
	zero := 0
	raw, err := json.Marshal(Event{Seq: 3, Type: EventFleet, Job: "j", TMS: 1500, Fleet: FleetLease, Chunk: &zero, Worker: "w0"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":3,"type":"fleet","job":"j","t_ms":1500,"fleet":"lease","chunk":0,"worker":"w0"}`
	if string(raw) != want {
		t.Errorf("fleet event JSON\n got %s\nwant %s", raw, want)
	}
	raw, err = json.Marshal(Event{Seq: 1, Type: EventQueued, TMS: 0})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"seq":1,"type":"queued","t_ms":0}`
	if string(raw) != want {
		t.Errorf("queued event JSON\n got %s\nwant %s", raw, want)
	}
}

// TestJournalAuditInRecord: an audited job's report rides in its record —
// served by Get before and after a restart, byte for byte, and omitted from
// List like the event log.
func TestJournalAuditInRecord(t *testing.T) {
	store := newMemStore()
	report := RawJSON(`{"status":"ok","max_error_pct":0.5}`)
	j1 := New(Options{Store: store, ProgressInterval: -1})
	j1.JobQueued("job-1", Record{Engine: "rpstacks", GridPoints: 1})
	j1.JobFinished("job-1", Finish{Status: "done", AuditStatus: "ok", Audit: report})

	j2 := New(Options{Store: store, ProgressInterval: -1})
	for name, j := range map[string]*Journal{"live": j1, "restarted": j2} {
		rec, ok := j.Get("job-1")
		if !ok || string(rec.Audit) != string(report) {
			t.Fatalf("%s Get audit = %s (ok %v), want %s", name, rec.Audit, ok, report)
		}
		if recs := j.List(Query{}); len(recs) != 1 || recs[0].Audit != nil {
			t.Fatalf("%s List = %+v, want one record without its audit", name, recs)
		}
	}
}
