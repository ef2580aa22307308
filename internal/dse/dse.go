// Package dse drives latency-domain design space exploration with the three
// competing engines the paper times against each other (Section V-C): full
// re-simulation per design point, Fields-style dependence-graph
// reconstruction per point, and RpStacks (one analysis, constant-time
// prediction per point).
package dse

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/stacks"
)

// Axis is one latency-domain dimension: the candidate cycle costs of one
// event kind.
type Axis struct {
	Event  stacks.Event
	Values []float64
}

// Space is a full-factorial latency design space around a baseline.
type Space struct {
	Axes []Axis
}

// Size returns the number of design points, saturating at math.MaxInt when
// the product overflows (SizeSaturating distinguishes the two; SizeWithin
// enforces a cap). It can therefore never wrap negative on huge axis lists.
func (s *Space) Size() int {
	n, _ := s.SizeSaturating()
	return n
}

// Point materializes design point idx (row-major over the axes) on top of
// the base latency assignment.
func (s *Space) Point(base stacks.Latencies, idx int) stacks.Latencies {
	l := base
	for _, a := range s.Axes {
		n := len(a.Values)
		l[a.Event] = a.Values[idx%n]
		idx /= n
	}
	return l
}

// Enumerate materializes every design point. It panics on a space whose
// size overflows int — such a space cannot be materialized at all; callers
// facing user-supplied axes should gate on SizeWithin (or use a search
// mode, which never materializes the grid).
func (s *Space) Enumerate(base stacks.Latencies) []stacks.Latencies {
	n, exact := s.SizeSaturating()
	if !exact {
		panic("dse: design space too large to materialize; use a search mode")
	}
	out := make([]stacks.Latencies, n)
	od := newOdometer(s)
	od.seek(base, 0)
	for i := range out {
		out[i] = od.lat
		od.next()
	}
	return out
}

// Validate checks the space is well-formed: at least one axis, every axis a
// latency-domain knob with at least one value, every value finite and
// non-negative, and no event named by two axes (a duplicate would silently
// shadow the earlier axis in Point's row-major walk).
func (s *Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("dse: empty design space")
	}
	var seen [stacks.NumEvents]bool
	for _, a := range s.Axes {
		if !a.Event.Optimizable() {
			return fmt.Errorf("dse: event %s is not a latency-domain knob", a.Event)
		}
		if seen[a.Event] {
			return fmt.Errorf("dse: duplicate axis for event %s", a.Event)
		}
		seen[a.Event] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("dse: axis %s has no values", a.Event)
		}
		for _, v := range a.Values {
			if !(v >= 0) || math.IsInf(v, 1) { // NaN fails v >= 0
				return fmt.Errorf("dse: axis %s latency %g is not a finite non-negative value", a.Event, v)
			}
		}
	}
	return nil
}

// Result is the predicted (or measured) cycle count of one design point.
// A result's index in Report.Results is its point: Report.Point answers the
// latency assignment.
type Result struct {
	Cycles float64
}

// WorkerTiming is one sweep worker's share of the per-point loop.
type WorkerTiming struct {
	Worker int
	Points int
	Busy   time.Duration
}

// Report carries the results of one exploration plus its wall-clock cost
// split into one-time setup and the per-point loop.
type Report struct {
	Method string
	// Results holds one entry per design point, in point order: Results[i]
	// is the cycle count of Point(i). It is read-only once the Report is
	// returned: a fleet sweep hands every waiter the same slice, and the
	// audit and the ranking read it by point index (Rank never reorders it).
	Results []Result
	// Setup is the one-time cost of preparing the engine (simulate, analyze,
	// build the graph), recorded by Explore from ExploreOptions.Setup. It is
	// what Total and Crossover amortize.
	Setup time.Duration
	// PerPoint is the effective per-design-point cost: sweep wall-clock
	// divided by the point count. Under a parallel sweep it already reflects
	// the worker speedup, so Total, Crossover and the Figure 2b/13 series
	// stay meaningful.
	PerPoint time.Duration
	// Wall is the aggregate wall-clock of the whole per-point loop.
	Wall time.Duration
	// Workers holds per-worker busy time and point counts (one entry per
	// worker that ran; a serial sweep has exactly one).
	Workers []WorkerTiming
	// Resumed is the number of design points restored from a checkpoint
	// instead of being evaluated (zero without ExploreOptions.Checkpoint).
	// PerPoint still divides the loop wall-clock by the full point count, so
	// a heavily resumed sweep reports an optimistic per-point cost.
	Resumed int
	// Fingerprint is the sweep's identity hash — SHA-256 over the engine,
	// its prepared inputs and the full point list, the same binding the
	// checkpoint layer uses. Set on every checkpointed sweep and on sweeps
	// run with ExploreOptions.NeedFingerprint; nil otherwise. It seeds the
	// audit sampler, which is why the audited point set is stable across
	// resumes: the hash covers the sweep's inputs, not its schedule.
	Fingerprint []byte
	// Batch is the lane width the sweep actually evaluated with: how many
	// design points each pass over the engine's model covered — the
	// resolved ExploreOptions.BatchSize (always 1 for the sim engine).
	// Purely informational — results are identical at every width.
	Batch int
	// points is the point source the sweep ran over; Point reads it.
	points pointSource
}

// Point returns design point i of the sweep, the latency assignment behind
// Results[i]: the caller's list element (Explore holds the list by
// reference, so the caller must not modify it), or the space's point decoded
// on demand (ExploreSpace).
func (r *Report) Point(i int) stacks.Latencies { return r.points.at(i) }

// Total returns the wall-clock cost of exploring n points with this
// method's measured timings.
func (r *Report) Total(n int) time.Duration {
	return r.Setup + time.Duration(n)*r.PerPoint
}

// finish stamps the loop timing fields of a completed sweep.
func (r *Report) finish(wall time.Duration, workers []WorkerTiming) {
	r.Wall = wall
	r.Workers = workers
	if n := len(r.Results); n > 0 {
		r.PerPoint = wall / time.Duration(n)
	}
}

// runPoints is the engines' shared sweep driver over the point source src,
// which it records as rep's. Without a checkpoint it runs the plain chunked
// sweep. With one, it fingerprints the sweep (method + the engine input
// streamed by salt + every point), restores persisted chunks, evaluates
// only the pending points, and publishes each completed chunk atomically —
// crash-safe at chunk granularity. ev is the engine's per-worker batch
// evaluation; the lane width changes how a chunk's points are walked, never
// which points land in which chunk, so checkpoint files and fingerprints
// are identical across widths and point sources. salt may be nil for
// engines whose output is determined by the points alone.
func runPoints(rep *Report, src pointSource, opts ExploreOptions, salt func(io.Writer) error, ev engineEval) error {
	rep.points = src
	n := src.n
	// The sweep root wraps everything below — checkpoint restore included —
	// so an exported trace accounts for (at least) the whole Report.Wall.
	// Chunk spans attach under it via TraceParent; all of this is inert when
	// opts.Tracer is nil.
	root := opts.Tracer.StartChild(opts.TraceParent, obs.CatDSE, obs.NameSweep)
	root.SetDetail(rep.Method)
	root.SetArg(obs.ArgPoints, int64(n))
	defer root.End()
	opts.TraceParent = root.ID()

	rep.Batch = ev.width
	results := rep.Results
	nw := opts.workerCount(n)
	if opts.ChunkSize == 0 {
		// Align auto-sized chunks to the lane width: a chunk is the unit one
		// worker claims, so an auto chunk narrower than the batch would
		// silently cap every model pass below the resolved width. Explicit
		// chunk sizes are respected — cancellation granularity is the
		// caller's call.
		c := opts.chunkSize(n, nw)
		if rem := c % ev.width; rem != 0 {
			c += ev.width - rem
		}
		opts.ChunkSize = c
	}
	// Per-worker batch scratches: the output lanes of one model pass, and
	// each worker's window onto the points. O(workers·width), allocated once.
	outBufs := make([][]float64, nw)
	wins := make([]lanes, nw)
	for i := range outBufs {
		outBufs[i] = make([]float64, ev.width)
		wins[i] = newLanes(&rep.points, ev.width)
	}
	// evalRange evaluates the contiguous design points [lo, hi): a list's
	// own slices, or lanes an odometer fills from lo on.
	evalRange := func(worker, lo, hi int) error {
		out, win := outBufs[worker], &wins[worker]
		win.seek(lo)
		for i := lo; i < hi; i += ev.width {
			j := min(i+ev.width, hi) // ragged final batch of the chunk
			if err := ev.batch(worker, win.next(j-i), out[:j-i]); err != nil {
				return err
			}
			for t, c := range out[:j-i] {
				results[i+t] = Result{Cycles: c}
			}
		}
		return nil
	}
	// evalIndices evaluates the scattered point indices idxs — the resume
	// path walks pending-index space, so a batch gathers its points first
	// and scatters its results after.
	evalIndices := func(worker int, idxs []int) error {
		out, win := outBufs[worker], &wins[worker]
		for o := 0; o < len(idxs); o += ev.width {
			group := idxs[o:min(o+ev.width, len(idxs))]
			if err := ev.batch(worker, win.gather(group), out[:len(group)]); err != nil {
				return err
			}
			for t, i := range group {
				results[i] = Result{Cycles: out[t]}
			}
		}
		return nil
	}

	if opts.Checkpoint == nil {
		if opts.NeedFingerprint {
			fp, err := sweepFingerprint(rep.Method, salt, &rep.points)
			if err != nil {
				return err
			}
			rep.Fingerprint = fp[:]
		}
		wall, workers, err := sweep(n, opts, evalRange)
		if err != nil {
			return err
		}
		rep.finish(wall, workers)
		return nil
	}

	dir := opts.Checkpoint.Dir
	fp, err := sweepFingerprint(rep.Method, salt, &rep.points)
	if err != nil {
		return err
	}
	rep.Fingerprint = fp[:]
	done := make([]bool, n)
	restored, err := sweepLog.load(dir, fp[:], func(entries []chunkEntry) bool {
		for _, e := range entries {
			if e.idx < 0 || e.idx >= len(results) || done[e.idx] {
				return false
			}
		}
		for _, e := range entries {
			done[e.idx] = true
			results[e.idx].Cycles = e.cycles
		}
		return true
	}, opts.Tracer, opts.TraceParent)
	if err != nil {
		return err
	}
	rep.Resumed = restored
	pending := make([]int, 0, n-restored)
	for i, d := range done {
		if !d {
			pending = append(pending, i)
		}
	}
	// The sweep walks pending-index space; chunk files are disjoint across
	// resumes because a restored point never becomes pending again.
	wall, workers, err := sweep(len(pending), opts, func(worker, lo, hi int) error {
		if lo == hi {
			return nil // fully resumed sweep: nothing to evaluate or publish
		}
		idxs := pending[lo:hi]
		if err := evalIndices(worker, idxs); err != nil {
			return err
		}
		cycles := make([]float64, len(idxs))
		for k, i := range idxs {
			cycles[k] = results[i].Cycles
		}
		return sweepLog.save(dir, fp[:], idxs, cycles)
	})
	if err != nil {
		return err
	}
	rep.finish(wall, workers)
	if opts.Checkpoint.RemoveOnSuccess {
		// The Report is complete; the chunk files have nothing left to
		// protect. Errors above keep them for the next resume.
		sweepLog.remove(dir)
	}
	return nil
}

// Crossover returns the design-point count beyond which method a (with
// setup cost) beats method b, or -1 if it never does within limit.
func Crossover(a, b *Report, limit int) int {
	for n := 1; n <= limit; n++ {
		if a.Total(n) < b.Total(n) {
			return n
		}
	}
	return -1
}

// Rank returns the indices of the best top results meeting cycleBudget —
// ascending cycles, the lower point index first among equal cycles — and
// how many results meet it (Cycles <= cycleBudget; +Inf sets no budget, and
// a NaN never meets one). It makes one pass with a bounded max-heap of the
// top survivors, O(n log top), sorts only those, and never writes results.
func Rank(results []Result, top int, cycleBudget float64) (best []int, meeting int) {
	if top < 0 {
		top = 0
	}
	// The heap root is the worst survivor. Points arrive in index order, so
	// a later point displaces it only with strictly fewer cycles.
	h := make([]ranked, 0, min(top, len(results)))
	for i := range results {
		c := results[i].Cycles
		if !(c <= cycleBudget) {
			continue
		}
		meeting++
		switch {
		case len(h) < top:
			h = append(h, ranked{c, i})
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if !h[j].worse(h[p]) {
					break
				}
				h[j], h[p] = h[p], h[j]
				j = p
			}
		case top > 0 && c < h[0].cycles:
			h[0] = ranked{c, i}
			siftDown(h, 0)
		}
	}
	// Heap sort: moving each root behind the shrinking heap leaves the
	// survivors best first.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	best = make([]int, len(h))
	for k, r := range h {
		best[k] = r.idx
	}
	return best, meeting
}

// ranked is one Rank survivor: its cycles, kept beside the index so the
// heap never reads the scattered Result it came from.
type ranked struct {
	cycles float64
	idx    int
}

// worse orders Rank's max-heap: more cycles, then the higher point index.
func (r ranked) worse(o ranked) bool {
	return r.cycles > o.cycles || (r.cycles == o.cycles && r.idx > o.idx)
}

// siftDown restores the max-heap property below h[j].
func siftDown(h []ranked, j int) {
	for {
		w := j
		if l := 2*j + 1; l < len(h) && h[l].worse(h[w]) {
			w = l
		}
		if r := 2*j + 2; r < len(h) && h[r].worse(h[w]) {
			w = r
		}
		if w == j {
			return
		}
		h[j], h[w] = h[w], h[j]
		j = w
	}
}
