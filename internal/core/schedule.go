package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/depgraph"
	"repro/internal/stacks"
)

// scheduler runs RpStacks generation as a dataflow over the nodes of every
// segment graph at once (Section IV-D): a node's stack set is reduced from
// its predecessors' sets as soon as the last of them is final, so segments
// proceed side by side and independent paths inside one segment proceed in
// parallel. Arriving candidates are reduced at each node: dominated paths
// are eliminated (lossless), similar paths merge into the larger-penalty
// one, and paths with a unique event kind are preserved (Section IV-E). The
// sink's surviving stacks are the segment's RpStacks.
//
// A node's set is a pure function of its in-sets and edge weights, so the
// result does not depend on the worker count or on which worker runs which
// node. A set no node reads any more goes back to the free list of the
// worker that released it, and new sets are drawn from there.
//
// Segments are admitted in order, at most workers+1 at a time: a segment's
// graph is built on admission and dropped when its last node completes, so
// peak memory stays bounded however long the trace is.
type scheduler struct {
	workers int
	// build returns segment i's dependence graph.
	build func(i int) (*depgraph.Graph, error)
	// sets receives each segment's sink set.
	sets [][]stacks.Stack
	// red holds each worker's reducer scratch and free list.
	red []reducer

	mu     sync.Mutex
	wake   sync.Cond // signalled when ready grows or the run ends
	ready  []task    // published ready tasks, taken last in first out
	next   int       // next segment to admit
	left   int       // segments not yet complete
	err    error
	errSeg int
}

// task is one unit of scheduler work: a ready node of an admitted segment,
// or, with node < 0, building the segment's graph.
type task struct {
	seg  *segment
	node depgraph.NodeID
}

// segment is the dataflow state of one admitted segment graph.
type segment struct {
	idx int
	g   *depgraph.Graph
	// pending counts, per node, the in-edges whose source set is not final
	// yet; the node is ready at zero.
	pending []atomic.Int32
	// owner[n] is the node whose set n holds: n itself, or owner[p] when n
	// is a pass-through of p.
	owner []depgraph.NodeID
	// uses counts, per owner, the consumers that have not copied its set
	// yet, over the owner and every pass-through node sharing the set; the
	// set is recycled at zero. The sink holds one use more, so its set,
	// which goes into the Analysis, is never recycled.
	uses []atomic.Int32
	// The successors of node n are succ[start[n]:start[n+1]], one entry per
	// out-edge.
	start []int32
	succ  []depgraph.NodeID
	// sets is indexed by owner.
	sets [][]stacks.Stack
	// left counts the nodes not yet done.
	left atomic.Int32
}

// generateSegments runs the scheduler over n segment graphs with
// opts.Parallelism workers (zero or one: one) and returns each segment's
// representative stacks.
func generateSegments(n int, build func(i int) (*depgraph.Graph, error), base *stacks.Latencies, opts *Options) ([][]stacks.Stack, error) {
	s := newScheduler(n, build, base, opts)
	return s.sets, s.run()
}

func newScheduler(n int, build func(i int) (*depgraph.Graph, error), base *stacks.Latencies, opts *Options) *scheduler {
	s := &scheduler{
		workers: max(opts.Parallelism, 1),
		build:   build,
		sets:    make([][]stacks.Stack, n),
		left:    n,
	}
	s.red = make([]reducer, s.workers)
	for w := range s.red {
		s.red[w] = reducer{base: base, opts: opts}
	}
	s.wake.L = &s.mu
	return s
}

// run admits the first workers+1 segments and runs the workers until every
// segment is complete or a graph fails to build. Of several build errors,
// the earliest segment's is returned.
func (s *scheduler) run() error {
	for k := min(s.workers+1, len(s.sets)); k > 0; k-- {
		s.ready = append(s.ready, s.admitLocked())
	}
	slices.Reverse(s.ready) // the earliest segment on top
	var wg sync.WaitGroup
	for w := range s.red {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(&s.red[w])
		}()
	}
	wg.Wait()
	return s.err
}

// admitLocked returns the build task of the next segment. s.mu is held or
// no worker runs yet.
func (s *scheduler) admitLocked() task {
	t := task{seg: &segment{idx: s.next}, node: -1}
	s.next++
	return t
}

// work is one worker: it runs tasks until the run ends. A worker keeps one
// newly ready task for itself and publishes the rest, so a chain of nodes
// never touches the shared queue. Its reducer scratch and free list serve
// every node it runs, in every segment.
func (s *scheduler) work(r *reducer) {
	var out []task
	t, ok := s.pop()
	for ok {
		if t.node < 0 {
			out = s.admit(t.seg, out[:0])
		} else {
			out = s.runNode(r, t.seg, t.node, out[:0])
		}
		if len(out) == 0 {
			t, ok = s.pop()
			continue
		}
		t = out[0]
		if len(out) > 1 {
			s.push(out[1:])
		}
	}
}

// pop takes a published task, waiting while there is none and the run has
// not ended. It reports false once every segment is complete or a build
// has failed.
func (s *scheduler) pop() (task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) == 0 && s.left > 0 && s.err == nil {
		s.wake.Wait()
	}
	if s.err != nil || len(s.ready) == 0 {
		return task{}, false
	}
	t := s.ready[len(s.ready)-1]
	s.ready = s.ready[:len(s.ready)-1]
	return t, true
}

// push publishes ready tasks.
func (s *scheduler) push(ts []task) {
	s.mu.Lock()
	s.ready = append(s.ready, ts...)
	s.mu.Unlock()
	for range ts {
		s.wake.Signal()
	}
}

// admit builds the segment's graph and its dataflow state, and appends the
// tasks of its source nodes to out.
func (s *scheduler) admit(sg *segment, out []task) []task {
	g, err := s.build(sg.idx)
	if err != nil {
		s.mu.Lock()
		if s.err == nil || sg.idx < s.errSeg {
			s.err, s.errSeg = err, sg.idx
		}
		s.mu.Unlock()
		s.wake.Broadcast()
		return out
	}
	n := g.NumNodes()
	sg.g = g
	sg.pending = make([]atomic.Int32, n)
	sg.owner = make([]depgraph.NodeID, n)
	sg.uses = make([]atomic.Int32, n)
	sg.start = make([]int32, n+1)
	sg.sets = make([][]stacks.Stack, n)
	sg.left.Store(int32(n))
	for v := 0; v < n; v++ {
		in := g.In(depgraph.NodeID(v))
		sg.owner[v] = depgraph.NodeID(v)
		sg.pending[v].Store(int32(len(in)))
		for _, e := range in {
			sg.uses[e.From].Add(1)
		}
		if len(in) == 0 {
			out = append(out, task{sg, depgraph.NodeID(v)})
		}
	}
	// start[u] is first the beginning of u's successor run, advanced as
	// the run fills, then shifted back one place.
	var sum int32
	for u := 0; u < n; u++ {
		sg.start[u] = sum
		sum += sg.uses[u].Load()
	}
	sg.succ = make([]depgraph.NodeID, sum)
	for v := 0; v < n; v++ {
		for _, e := range g.In(depgraph.NodeID(v)) {
			sg.succ[sg.start[e.From]] = depgraph.NodeID(v)
			sg.start[e.From]++
		}
	}
	copy(sg.start[1:], sg.start[:n])
	sg.start[0] = 0
	sg.uses[g.Sink()].Add(1)
	return out
}

// runNode computes node n's set, then appends the tasks of the successors
// it made ready to out. A node whose one in-edge weighs nothing shares its
// predecessor's set: a reduced set reduces to itself (see DESIGN.md §3).
// Its uses join the owner's before it gives up its own use of the
// predecessor, so the shared set stays live until its last reader is done.
func (s *scheduler) runNode(r *reducer, sg *segment, n depgraph.NodeID, out []task) []task {
	in := sg.g.In(n)
	switch {
	case len(in) == 0:
		set := r.newSet(1)
		set[0] = stacks.Stack{}
		sg.sets[n] = set
	case len(in) == 1 && zeroWeight(&in[0].W):
		p := in[0].From
		o := sg.owner[p]
		sg.owner[n] = o
		sg.uses[o].Add(sg.uses[n].Load())
		sg.release(r, p)
	default:
		r.cand, r.ends = r.cand[:0], r.ends[:0]
		for i := range in {
			e := &in[i]
			lo := len(r.cand)
			r.cand = append(r.cand, sg.sets[sg.owner[e.From]]...)
			addWeight(r.cand[lo:], &e.W)
			r.ends = append(r.ends, len(r.cand))
			sg.release(r, e.From)
		}
		sg.sets[n] = r.reduce()
	}
	for _, m := range sg.succ[sg.start[n]:sg.start[n+1]] {
		if sg.pending[m].Add(-1) == 0 {
			out = append(out, task{sg, m})
		}
	}
	if sg.left.Add(-1) == 0 {
		out = s.complete(sg, out)
	}
	return out
}

// release records that one consumer has copied node p's set, recycling the
// set onto r's free list after the last.
func (sg *segment) release(r *reducer, p depgraph.NodeID) {
	o := sg.owner[p]
	if sg.uses[o].Add(-1) == 0 {
		r.recycle(sg.sets[o])
		sg.sets[o] = nil
	}
}

// complete stores the finished segment's sink set, drops its graph and
// state, and admits the next segment, appending its build task to out.
func (s *scheduler) complete(sg *segment, out []task) []task {
	s.sets[sg.idx] = sg.sets[sg.owner[sg.g.Sink()]]
	// Stale tasks in reused buffers may still point at sg.
	sg.g, sg.pending, sg.owner, sg.uses, sg.start, sg.succ, sg.sets = nil, nil, nil, nil, nil, nil, nil
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left--; s.left == 0 {
		s.wake.Broadcast()
	}
	if s.next < len(s.sets) && s.err == nil {
		out = append(out, s.admitLocked())
	}
	return out
}

// zeroWeight reports whether the edge weight adds no event.
func zeroWeight(w *depgraph.Weight) bool {
	return w[0].N|w[1].N|w[2].N == 0
}
