// Package journal keeps one wide-event flight record per exploration job —
// the retrospective answer to "what happened to job X": spec summary, stage
// timings fed from the job's span records, cache outcomes, fleet lease
// churn, search and audit verdicts, terminal status — plus the live answer
// to "how is it doing right now": a per-job event stream (queued → running →
// progress → fleet → done) with monotonic sequence numbers, bounded
// subscriber buffers and slow-reader drop accounting.
//
// Records persist through an optional store (rpserved passes its durable
// artifact store), so a restarted service still serves last week's flight
// records and replays their event logs. The store is a ring of Capacity
// slots: a finished job costs exactly one write, into the slot of the
// record it replaces, and the store never holds more than Capacity
// records. A restarted journal reads the slots once and serves what it
// finds from memory.
//
// A nil *Journal is valid and does nothing — the disabled form, mirroring
// the obs.Tracer convention — which is what makes the journal provably
// inert: the differential test runs the same sweep with and without one.
package journal

import (
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Store is the durable face the journal persists through — the subset of
// store.Store it needs. Nil keeps records in memory only.
type Store interface {
	Get(key string) ([]byte, time.Duration, bool)
	Put(key string, payload []byte, cost time.Duration) error
}

// slotKey is the storage key of ring slot i. Job IDs are sequential per
// process, so a restarted service reuses them: a finished job takes over
// the slot of a retained record with its ID, so one ID never has two
// records.
func slotKey(i int) string { return "journal|slot|" + strconv.Itoa(i) }

// SearchStats summarizes a guided-search job's probe loop on the record.
type SearchStats struct {
	Mode      string `json:"mode"`
	Probes    int    `json:"probes"`
	Rounds    int    `json:"rounds"`
	Converged bool   `json:"converged"`
	Feasible  bool   `json:"feasible"`
	Verified  bool   `json:"verified"`
}

// Record is one job's wide-event flight record. The submission fields are
// set by the caller at JobQueued; stage timings and cache/fleet counts
// accumulate from span records via ObserveSpan; the rest lands at
// JobFinished. Audit is an audited job's full report, as JSON. Events is the
// bounded retained event log — what Last-Event-ID replay serves after the
// live stream (or the whole process) is gone.
type Record struct {
	JobID       string    `json:"job_id"`
	Status      string    `json:"status"`
	Engine      string    `json:"engine"`
	Workload    string    `json:"workload,omitempty"`
	TraceDigest string    `json:"trace_digest,omitempty"`
	GridPoints  int       `json:"grid_points"`
	BatchSize   int       `json:"batch_size,omitempty"`
	Workers     int       `json:"sweep_workers,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started"`
	Finished    time.Time `json:"finished"`

	QueueMS    float64 `json:"queue_ms"`
	SetupMS    float64 `json:"setup_ms"`
	SweepMS    float64 `json:"sweep_ms"`
	AssembleMS float64 `json:"assemble_ms,omitempty"`

	SetupCached   bool `json:"setup_cached"`
	CacheMemHits  int  `json:"cache_mem_hits,omitempty"`
	CacheDiskHits int  `json:"cache_disk_hits,omitempty"`
	CacheBuilds   int  `json:"cache_builds,omitempty"`

	FleetChunks   int `json:"fleet_chunks,omitempty"`
	FleetSteals   int `json:"fleet_steals,omitempty"`
	FleetExpiries int `json:"fleet_expiries,omitempty"`
	FleetWorkers  int `json:"fleet_workers,omitempty"`

	Search      *SearchStats `json:"search,omitempty"`
	AuditStatus string       `json:"audit_status,omitempty"`
	Error       string       `json:"error,omitempty"`

	Audit  RawJSON `json:"audit,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// RawJSON is a JSON document a record carries verbatim, as json.RawMessage
// does. It is the journal's own type because linking RawMessage's methods
// puts new encoding/json text ahead of the evaluation hot loops in every
// binary that links the journal, shifting their code alignment.
type RawJSON []byte

// MarshalJSON returns the document itself ("null" when empty).
func (r RawJSON) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// UnmarshalJSON keeps a copy of the document.
func (r *RawJSON) UnmarshalJSON(b []byte) error {
	*r = append((*r)[:0], b...)
	return nil
}

// Finish carries a job's terminal summary into JobFinished. Zero-valued
// fields leave whatever the record already accumulated.
type Finish struct {
	Status      string
	Error       string
	TraceDigest string
	GridPoints  int
	BatchSize   int
	Workers     int
	SweepMS     float64
	SetupCached bool
	AuditStatus string
	Audit       RawJSON
	Search      *SearchStats
}

// Options parameterizes New.
type Options struct {
	// Store persists finished records; nil keeps them in memory only.
	Store Store
	// Capacity bounds the finished records kept, in memory and in the
	// store alike: the store holds at most Capacity slots (default 512).
	Capacity int
	// EventCapacity bounds each job's retained event log (default 256);
	// the oldest events of a very chatty job are dropped, sequence numbers
	// preserved.
	EventCapacity int
	// SubscriberBuffer is each live subscriber's channel depth (default
	// 64). A subscriber that falls further behind than this drops events —
	// counted, never blocking the job.
	SubscriberBuffer int
	// ProgressInterval paces progress events (0: 500ms; negative: every
	// chunk — tests want every observation).
	ProgressInterval time.Duration
	// Now is the journal clock, injectable for tests (nil: time.Now).
	Now func() time.Time
	// Logger receives persistence trouble. Nil discards.
	Logger *slog.Logger
}

// Journal is the per-process record keeper. Create with New; a nil *Journal
// is the disabled form (every method no-ops).
type Journal struct {
	store    Store
	capacity int
	eventCap int
	bufCap   int
	interval time.Duration
	now      func() time.Time
	logger   *slog.Logger

	dropped     atomic.Uint64 // events dropped on slow subscriber buffers
	persistErrs atomic.Uint64
	writes      atomic.Uint64 // store Puts attempted
	writeNS     atomic.Int64  // their summed wall time

	// writeMu orders slot claims with their Puts, so two writes to one
	// slot land in claim order. Lock ordering is writeMu before mu.
	writeMu sync.Mutex

	mu        sync.Mutex
	jobs      map[string]*jobState
	doneOrder []*jobState // retained finished jobs, oldest first
	// slots[i] is the ID of the record stored in slot i ("" when free);
	// nil without a store. Every owner is a job in doneOrder.
	slots []string
}

// jobState is one live (or retained) job. st.mu guards everything below it;
// lock ordering is Journal.mu before st.mu, and Progress's own lock before
// st.mu (the emit hook locks st.mu, so st.mu must never be held across a
// Progress call).
type jobState struct {
	id   string
	prog *obs.Progress

	mu     sync.Mutex
	rec    Record
	events []Event
	seq    uint64
	done   bool
	subs   map[chan Event]struct{}
}

// New builds a Journal and, when a store is mounted, retains the records
// its slots hold.
func New(opts Options) *Journal {
	if opts.Capacity <= 0 {
		opts.Capacity = 512
	}
	if opts.EventCapacity <= 0 {
		opts.EventCapacity = 256
	}
	if opts.SubscriberBuffer <= 0 {
		opts.SubscriberBuffer = 64
	}
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 500 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	j := &Journal{
		store:    opts.Store,
		capacity: opts.Capacity,
		eventCap: opts.EventCapacity,
		bufCap:   opts.SubscriberBuffer,
		interval: opts.ProgressInterval,
		now:      opts.Now,
		logger:   opts.Logger,
		jobs:     make(map[string]*jobState),
	}
	if j.store != nil {
		j.slots = make([]string, j.capacity)
		j.reload()
	}
	return j
}

// reload retains the records a previous lifetime left in the slots, oldest
// submitted first. Missing and undecodable slots stay free; of two records
// with one job ID, the newer keeps its slot.
func (j *Journal) reload() {
	type slotted struct {
		slot int
		rec  Record
	}
	var found []slotted
	for i := range j.slots {
		raw, _, ok := j.store.Get(slotKey(i))
		if !ok {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil || rec.JobID == "" {
			continue
		}
		found = append(found, slotted{i, rec})
	}
	sort.Slice(found, func(a, b int) bool {
		ra, rb := &found[a].rec, &found[b].rec
		if !ra.Submitted.Equal(rb.Submitted) {
			return ra.Submitted.Before(rb.Submitted)
		}
		return ra.JobID < rb.JobID
	})
	for _, f := range found {
		id := f.rec.JobID
		if k := j.slotOf(id); k >= 0 {
			j.slots[k] = ""
			j.removeDone(id)
		}
		st := j.newState(f.rec)
		st.events, st.rec.Events = f.rec.Events, nil
		if n := len(st.events); n > 0 {
			st.seq = st.events[n-1].Seq
		}
		st.done = true
		j.jobs[id] = st
		j.doneOrder = append(j.doneOrder, st)
		j.slots[f.slot] = id
	}
}

// newState opens the in-memory state of a job's record.
func (j *Journal) newState(rec Record) *jobState {
	st := &jobState{id: rec.JobID, rec: rec, subs: make(map[chan Event]struct{})}
	st.prog = obs.NewProgressFunc(func(u obs.ProgressUpdate) {
		st.mu.Lock()
		j.emitLocked(st, ProgressEvent(u))
		st.mu.Unlock()
	}, rec.GridPoints, j.interval, j.now)
	return st
}

// JobQueued opens a job's flight record and emits its queued event. The
// caller fills the submission-time fields of rec (engine, workload, grid
// size, submitted); everything else accumulates later.
func (j *Journal) JobQueued(id string, rec Record) {
	if j == nil {
		return
	}
	rec.JobID = id
	rec.Status = "queued"
	if rec.Submitted.IsZero() {
		rec.Submitted = j.now()
	}
	st := j.newState(rec)

	j.mu.Lock()
	j.jobs[id] = st
	j.mu.Unlock()

	st.mu.Lock()
	j.emitLocked(st, Event{Type: EventQueued})
	st.mu.Unlock()
}

// Discard forgets a job that never made it onto the queue (load-shed at
// submission); nothing is emitted or persisted.
func (j *Journal) Discard(id string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	delete(j.jobs, id)
	j.mu.Unlock()
}

// JobRunning marks the job claimed by a worker and emits its running event.
func (j *Journal) JobRunning(id string) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	st.mu.Lock()
	st.rec.Status = "running"
	st.rec.Started = j.now()
	j.emitLocked(st, Event{Type: EventRunning})
	st.mu.Unlock()
}

// ObserveSpan feeds one completed span of the job's tracer into the record:
// chunk and resume spans drive the progress meter (fleet chunk completions
// included — the coordinator ends one CatFleet chunk span per accepted
// worker self-report), lifecycle spans land as stage timings, cache lookups
// as outcome counts. Wire it beside the metrics hook in the tracer's
// WithOnEnd.
func (j *Journal) ObserveSpan(id string, rec obs.Record) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	switch {
	case rec.Cat == obs.CatDSE && (rec.Name == obs.NameChunk || rec.Name == obs.NameResume):
		st.prog.Observe(rec)
	case rec.Cat == obs.CatFleet && rec.Name == obs.NameChunk:
		st.mu.Lock()
		st.rec.FleetChunks++
		st.mu.Unlock()
		// Re-shape to the record kind the meter counts: a fleet chunk's
		// accepted completion is a chunk done, points in Arg either way.
		st.prog.Observe(obs.Record{Cat: obs.CatDSE, Name: obs.NameChunk, Arg: rec.Arg})
	case rec.Cat == obs.CatJob && rec.Name == obs.NameQueueWait:
		st.mu.Lock()
		st.rec.QueueMS = durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatJob && rec.Name == obs.NameSetup:
		st.mu.Lock()
		st.rec.SetupMS += durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatFleet && rec.Name == obs.NameAssemble:
		st.mu.Lock()
		st.rec.AssembleMS += durMS(rec.Dur)
		st.mu.Unlock()
	case rec.Cat == obs.CatCache:
		st.mu.Lock()
		switch rec.Name {
		case "mem-hit":
			st.rec.CacheMemHits++
		case "disk-hit":
			st.rec.CacheDiskHits++
		case "build":
			st.rec.CacheBuilds++
		}
		st.mu.Unlock()
	}
}

// FleetEvent records one lease-lifecycle notification (lease, steal,
// expire) from the coordinator against the job the sweep belongs to, and
// emits it on the live stream.
func (j *Journal) FleetEvent(id, kind string, chunk int, worker string) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	st.mu.Lock()
	switch kind {
	case FleetSteal:
		st.rec.FleetSteals++
	case FleetExpire:
		st.rec.FleetExpiries++
	}
	c := chunk
	j.emitLocked(st, Event{Type: EventFleet, Fleet: kind, Chunk: &c, Worker: worker})
	st.mu.Unlock()
}

// JobFinished closes the record: final progress flush, terminal event,
// subscriber shutdown, persistence, memory retention. Safe to call once per
// job.
func (j *Journal) JobFinished(id string, fin Finish) {
	if j == nil {
		return
	}
	st := j.state(id)
	if st == nil {
		return
	}
	// The flush emits through the progress hook, which locks st.mu — so it
	// must run before we take the lock ourselves.
	st.prog.Flush()

	st.mu.Lock()
	r := &st.rec
	r.Status = fin.Status
	r.Error = fin.Error
	r.Finished = j.now()
	if fin.TraceDigest != "" {
		r.TraceDigest = fin.TraceDigest
	}
	if fin.GridPoints > 0 {
		r.GridPoints = fin.GridPoints
	}
	if fin.BatchSize > 0 {
		r.BatchSize = fin.BatchSize
	}
	if fin.Workers > 0 {
		r.Workers = fin.Workers
	}
	if fin.SweepMS > 0 {
		r.SweepMS = fin.SweepMS
	}
	if fin.SetupCached {
		r.SetupCached = true
	}
	if fin.AuditStatus != "" {
		r.AuditStatus = fin.AuditStatus
	}
	if len(fin.Audit) > 0 {
		r.Audit = fin.Audit
	}
	if fin.Search != nil {
		r.Search = fin.Search
	}
	workers := make(map[string]bool)
	for _, ev := range st.events {
		if ev.Type == EventFleet && ev.Worker != "" {
			workers[ev.Worker] = true
		}
	}
	if len(workers) > 0 {
		r.FleetWorkers = len(workers)
	}
	j.emitLocked(st, Event{Type: EventDone, Status: fin.Status, Error: fin.Error})
	st.done = true
	for ch := range st.subs {
		close(ch)
	}
	st.subs = make(map[chan Event]struct{})
	var payload []byte
	var err error
	if j.store != nil {
		persisted := *r
		persisted.Events = st.events
		payload, err = json.Marshal(persisted)
	}
	st.mu.Unlock()

	j.persist(st, payload, err)
}

// persist retains the finished job and, with a store, writes its encoded
// record (or the error encoding it) into the job's slot: one Put.
// Best-effort: a failed write keeps the record in memory for its retained
// lifetime and frees the slot.
func (j *Journal) persist(st *jobState, payload []byte, err error) {
	if j.store == nil {
		j.retain(st)
		return
	}
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	slot := j.retain(st)
	if err == nil {
		t := time.Now()
		err = j.store.Put(slotKey(slot), payload, 0)
		j.writeNS.Add(int64(time.Since(t)))
		j.writes.Add(1)
	}
	if err != nil {
		j.persistErrs.Add(1)
		j.mu.Lock()
		j.slots[slot] = ""
		j.mu.Unlock()
		j.logger.Warn("journal record not persisted",
			slog.String("job_id", st.id), slog.String("error", err.Error()))
	}
}

// retain moves a finished job to the newest end of retention, dropping the
// oldest record once over capacity, and with a store claims the job's slot:
// that of a retained record with the same ID, else the dropped record's,
// else the lowest free one. Some slot is always left, because every owner
// is a job in doneOrder.
func (j *Journal) retain(st *jobState) (slot int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.removeDone(st.id)
	j.doneOrder = append(j.doneOrder, st)
	dropped := ""
	if len(j.doneOrder) > j.capacity {
		old := j.doneOrder[0]
		j.doneOrder = j.doneOrder[1:]
		// A live job may have reused the ID: only the old state goes.
		if j.jobs[old.id] == old {
			delete(j.jobs, old.id)
		}
		dropped = old.id
	}
	if j.slots == nil {
		return -1
	}
	if slot = j.slotOf(st.id); slot >= 0 {
		return slot
	}
	if slot = j.slotOf(dropped); slot < 0 {
		slot = j.slotOf("")
	}
	j.slots[slot] = st.id
	return slot
}

// slotOf returns the lowest slot owned by id (free slots are owned by ""),
// or -1. Called with mu held.
func (j *Journal) slotOf(id string) int {
	for i, owner := range j.slots {
		if owner == id {
			return i
		}
	}
	return -1
}

// removeDone takes id's retained finished record, if any, out of retention
// order. Called with mu held.
func (j *Journal) removeDone(id string) {
	for i, st := range j.doneOrder {
		if st.id == id {
			j.doneOrder = append(j.doneOrder[:i], j.doneOrder[i+1:]...)
			return
		}
	}
}

func (j *Journal) state(id string) *jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jobs[id]
}

// Get returns one live or retained job's record, event log included.
// Records a previous lifetime persisted are retained from New on.
func (j *Journal) Get(id string) (Record, bool) {
	if j == nil {
		return Record{}, false
	}
	st := j.state(id)
	if st == nil {
		return Record{}, false
	}
	st.mu.Lock()
	rec := st.rec
	rec.Events = append([]Event(nil), st.events...)
	st.mu.Unlock()
	return rec, true
}

// Query filters List. Zero fields match everything.
type Query struct {
	// Status and Engine filter exactly when non-empty.
	Status string
	Engine string
	// Since keeps records submitted at or after it.
	Since time.Time
	// Limit bounds the response (0: 100).
	Limit int
}

// List returns matching records sorted newest-submitted first, bounded by
// the query's limit. Event logs and audit reports are omitted (GET the
// record by ID for those). Live jobs and retained ones, a previous
// lifetime's included, all appear.
func (j *Journal) List(q Query) []Record {
	if j == nil {
		return nil
	}
	if q.Limit <= 0 {
		q.Limit = 100
	}
	j.mu.Lock()
	states := make([]*jobState, 0, len(j.jobs))
	for _, st := range j.jobs {
		states = append(states, st)
	}
	j.mu.Unlock()
	recs := make([]Record, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		rec := st.rec
		st.mu.Unlock()
		rec.Events, rec.Audit = nil, nil
		recs = append(recs, rec)
	}
	out := recs[:0]
	for _, rec := range recs {
		if q.Status != "" && rec.Status != q.Status {
			continue
		}
		if q.Engine != "" && rec.Engine != q.Engine {
			continue
		}
		if !q.Since.IsZero() && rec.Submitted.Before(q.Since) {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Submitted.Equal(out[b].Submitted) {
			return out[a].Submitted.After(out[b].Submitted)
		}
		return out[a].JobID > out[b].JobID
	})
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Subscription is one live (or replayed) event stream. Read C until it
// closes — the terminal event is always the last delivery of a finished
// job — and Close when done (idempotent; a finished stream needs no Close).
type Subscription struct {
	C  <-chan Event
	j  *Journal
	st *jobState
	ch chan Event
}

// Close detaches the subscriber. Safe after the journal already closed the
// channel at job completion.
func (s *Subscription) Close() {
	if s == nil || s.st == nil {
		return
	}
	s.st.mu.Lock()
	if _, ok := s.st.subs[s.ch]; ok {
		delete(s.st.subs, s.ch)
		close(s.ch)
	}
	s.st.mu.Unlock()
}

// Subscribe opens a job's event stream from just after sequence number
// after (0 replays everything retained): the retained log is replayed
// first, then live events follow until the terminal one closes the
// channel. A finished job, a previous lifetime's included, yields the
// replay and an already-closed channel. Events beyond the subscriber's
// buffer are dropped and counted, never blocking the job.
func (j *Journal) Subscribe(id string, after uint64) (*Subscription, bool) {
	if j == nil {
		return nil, false
	}
	st := j.state(id)
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var replay []Event
	for _, ev := range st.events {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	if st.done {
		ch := make(chan Event, len(replay))
		for _, ev := range replay {
			ch <- ev
		}
		close(ch)
		return &Subscription{C: ch}, true
	}
	ch := make(chan Event, len(replay)+j.bufCap)
	for _, ev := range replay {
		ch <- ev
	}
	st.subs[ch] = struct{}{}
	return &Subscription{C: ch, j: j, st: st, ch: ch}, true
}

// emitLocked stamps and delivers one event: append to the bounded retained
// log, fan out to subscribers (dropping, not blocking, on a full buffer).
// Called with st.mu held.
func (j *Journal) emitLocked(st *jobState, ev Event) {
	st.seq++
	ev.Seq = st.seq
	ev.Job = st.rec.JobID
	ev.TMS = j.now().Sub(st.rec.Submitted).Milliseconds()
	st.events = append(st.events, ev)
	if len(st.events) > j.eventCap {
		st.events = append([]Event(nil), st.events[len(st.events)-j.eventCap:]...)
	}
	for ch := range st.subs {
		select {
		case ch <- ev:
		default:
			j.dropped.Add(1)
		}
	}
}

// Stats is the journal's own observability surface.
type Stats struct {
	// Records is the in-memory record count (live + retained finished).
	Records int
	// Persisted is the number of occupied store slots.
	Persisted int
	// Writes counts store Puts, one per finished job with a store, and
	// WriteTime sums their wall time.
	Writes    uint64
	WriteTime time.Duration
	// Subscribers counts attached live streams.
	Subscribers int
	// Dropped counts events lost to full subscriber buffers.
	Dropped uint64
	// PersistErrors counts failed store writes.
	PersistErrors uint64
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	s := Stats{Records: len(j.jobs)}
	for _, owner := range j.slots {
		if owner != "" {
			s.Persisted++
		}
	}
	states := make([]*jobState, 0, len(j.jobs))
	for _, st := range j.jobs {
		states = append(states, st)
	}
	j.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		s.Subscribers += len(st.subs)
		st.mu.Unlock()
	}
	s.Dropped = j.dropped.Load()
	s.PersistErrors = j.persistErrs.Load()
	s.Writes = j.writes.Load()
	s.WriteTime = time.Duration(j.writeNS.Load())
	return s
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
