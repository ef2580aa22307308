// Package obs is the system's own stall-event lens: a zero-dependency
// observability layer of hierarchical spans recorded into a bounded
// flight-recorder ring. The paper's whole pitch is explaining where a
// processor's cycles go; obs explains where *this system's* wall-clock goes —
// sweep → chunk → stage nesting across the dse engines, the rpserved job
// lifecycle, the cache/store tiers and the simulator phases — without pulling
// in any tracing dependency.
//
// Design constraints, in order:
//   - a disabled tracer (a nil *Tracer) must cost nothing on hot paths: no
//     allocations, no atomic traffic, no branches beyond one nil check;
//   - an enabled tracer must stay cheap at chunk granularity: span start/end
//     is a clock read plus one copy into a pre-allocated ring slot, and the
//     ring never grows — old records are overwritten, which is exactly the
//     flight-recorder semantics a long-running service wants;
//   - recording must be deterministic under test: the clock is injectable
//     (WithClock), so exporter output can be pinned as golden files.
//
// Exporters live beside the tracer: WriteChromeTrace renders the Chrome
// trace-event JSON that Perfetto and chrome://tracing load, WriteFolded
// renders the collapsed-stack format flamegraph tooling consumes.
package obs

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one completed span as stored in the ring: who (TID), what
// (Cat/Name/Detail), when (Start/Dur on the tracer's monotonic clock), and
// one optional numeric payload (ArgKey/Arg — e.g. points in a chunk, bytes
// read from the store).
type Record struct {
	ID     uint64 // unique per tracer, 1-based
	Parent uint64 // ID of the enclosing span; 0 for roots
	Cat    string // subsystem: "dse", "job", "cache", "store", "cpu"
	Name   string // operation within the subsystem
	Detail string // free-form label: engine name, cache key, job id
	TID    int    // worker / lane attribution (sweep worker index)
	Start  time.Duration
	Dur    time.Duration
	ArgKey string
	Arg    int64
}

// Tracer records spans into a bounded ring. The zero *value* is not usable —
// construct with NewTracer — but a nil *Tracer* is the canonical disabled
// tracer: every method on it is a cheap no-op, which is what keeps
// uninstrumented sweeps allocation-free.
type Tracer struct {
	clock func() time.Duration
	onEnd func(Record)
	ids   atomic.Uint64
	// idBase is OR-ed into every span ID: zero by default (IDs are 1, 2,
	// 3, ...), a process-identity hash shifted into the high 32 bits under
	// WithProcessID — what keeps IDs from colliding when span records of
	// several processes are merged into one timeline.
	idBase uint64

	mu    sync.Mutex
	ring  []Record
	total uint64 // records ever recorded; ring holds the last len(ring)
}

// Option configures NewTracer.
type Option func(*Tracer)

// WithClock replaces the tracer's monotonic clock. The function must be
// non-decreasing; tests inject a counter so exporter output is wall-clock
// free and golden-stable.
func WithClock(clock func() time.Duration) Option {
	return func(t *Tracer) { t.clock = clock }
}

// WithOnEnd registers a hook invoked synchronously with every completed
// span's Record, outside the ring lock. Progress meters and span-derived
// metrics histograms hang off this hook.
func WithOnEnd(fn func(Record)) Option {
	return func(t *Tracer) { t.onEnd = fn }
}

// WithProcessID namespaces the tracer's span IDs by a process identity (a
// fleet worker ID, a hostname-pid pair): a 32-bit hash of id occupies the
// high half of every span ID, the low half stays the per-tracer counter.
// Tracers of distinct processes then never emit colliding IDs, so span
// records from many processes merge into one timeline without misparenting.
// The default (no option) keeps the high half zero — plain 1, 2, 3, ... IDs
// — which is also a namespace of its own: the merge convention reserves it
// for the process that assembles the timeline.
func WithProcessID(id string) Option {
	return func(t *Tracer) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id))
		base := h.Sum64() & 0xFFFFFFFF
		if base == 0 {
			base = 1 // never the reserved coordinator namespace
		}
		t.idBase = base << 32
	}
}

// DefaultCapacity is the ring size NewTracer uses for non-positive
// capacities: enough for thousands of chunk spans, small enough to hold one
// per job in a busy service.
const DefaultCapacity = 4096

// NewTracer returns a tracer whose ring holds the most recent capacity
// records (DefaultCapacity if non-positive). The default clock is monotonic
// time since construction.
func NewTracer(capacity int, opts ...Option) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{ring: make([]Record, capacity)}
	epoch := time.Now()
	t.clock = func() time.Duration { return time.Since(epoch) }
	for _, o := range opts {
		o(t)
	}
	return t
}

// Now reads the tracer's monotonic clock — the timebase every recorded
// Start/Dur is expressed in. Cross-process clock synchronization samples it
// around protocol round-trips. Nil-safe: a disabled tracer reads zero.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Span is an in-flight operation. It is a plain value — start one with
// Tracer.Start/StartChild, decorate it with the Set* methods, finish it with
// End. The zero Span (and any span from a nil tracer) is inert: all methods
// are no-ops, so call sites need no nil checks of their own.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	cat    string
	name   string
	detail string
	tid    int
	start  time.Duration
	argKey string
	arg    int64
}

// Start opens a root span.
func (t *Tracer) Start(cat, name string) Span { return t.StartChild(0, cat, name) }

// StartChild opens a span nested under the span with ID parent (0 for a
// root). On a nil tracer it returns the inert zero Span.
func (t *Tracer) StartChild(parent uint64, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:      t,
		id:     t.idBase | t.ids.Add(1),
		parent: parent,
		cat:    cat,
		name:   name,
		start:  t.clock(),
	}
}

// ID returns the span's ID (0 for an inert span), for parenting children
// across API boundaries.
func (s *Span) ID() uint64 { return s.id }

// SetTID attributes the span to a worker lane (a sweep worker index); the
// Chrome exporter maps it to the trace's thread dimension.
func (s *Span) SetTID(tid int) {
	if s.t != nil {
		s.tid = tid
	}
}

// SetDetail attaches a free-form label (engine name, cache key, job id).
func (s *Span) SetDetail(d string) {
	if s.t != nil {
		s.detail = d
	}
}

// SetArg attaches the span's one numeric payload.
func (s *Span) SetArg(key string, v int64) {
	if s.t != nil {
		s.argKey, s.arg = key, v
	}
}

// Rename replaces the span's name before End — used where the right name is
// only known at completion (a cache lookup that turns out to be a mem hit, a
// store read that turns out to be corrupt).
func (s *Span) Rename(name string) {
	if s.t != nil {
		s.name = name
	}
}

// End completes the span, records it and returns its duration. A second End
// (or End on an inert span) is a no-op returning zero.
func (s *Span) End() time.Duration {
	t := s.t
	if t == nil {
		return 0
	}
	s.t = nil
	d := t.clock() - s.start
	rec := Record{
		ID:     s.id,
		Parent: s.parent,
		Cat:    s.cat,
		Name:   s.name,
		Detail: s.detail,
		TID:    s.tid,
		Start:  s.start,
		Dur:    d,
		ArgKey: s.argKey,
		Arg:    s.arg,
	}
	t.mu.Lock()
	t.ring[t.total%uint64(len(t.ring))] = rec
	t.total++
	t.mu.Unlock()
	if t.onEnd != nil {
		t.onEnd(rec)
	}
	return d
}

// Snapshot returns the recorded spans oldest-first (completion order), at
// most the ring capacity. Nil-safe: a disabled tracer has no records.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	capacity := uint64(len(t.ring))
	if n > capacity {
		out := make([]Record, 0, capacity)
		for i := n - capacity; i < n; i++ {
			out = append(out, t.ring[i%capacity])
		}
		return out
	}
	out := make([]Record, n)
	copy(out, t.ring[:n])
	return out
}

// Dropped returns how many records the ring has overwritten — the price of
// bounded flight recording.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, capacity := t.total, uint64(len(t.ring)); n > capacity {
		return n - capacity
	}
	return 0
}
