package core

import (
	"math/bits"
	"sort"

	"repro/internal/depgraph"
	"repro/internal/stacks"
)

// generate traverses the dependence graph in topological order, carrying at
// every node the stall-event stacks of the distinctive paths reaching it
// (Section IV-D). Arriving candidates are reduced at each node: dominated
// paths are eliminated (lossless), similar paths merge into the
// larger-penalty one, and paths with a unique event kind are preserved
// (Section IV-E). The sink's surviving stacks are the segment's RpStacks.
func generate(g *depgraph.Graph, base *stacks.Latencies, opts *Options) []stacks.Stack {
	order := g.EvalOrder()
	// uses counts the remaining consumers of every node's set, so a set is
	// released as soon as its last out-edge has been traversed.
	uses := make([]int32, g.NumNodes())
	for _, n := range order {
		for _, e := range g.In(n) {
			uses[e.From]++
		}
	}
	sets := make([][]stacks.Stack, g.NumNodes())
	r := reducer{base: base, opts: opts}
	for _, n := range order {
		in := g.In(n)
		if len(in) == 0 {
			sets[n] = []stacks.Stack{{}}
			continue
		}
		r.cand, r.ends = r.cand[:0], r.ends[:0]
		for i := range in {
			e := &in[i]
			lo := len(r.cand)
			r.cand = append(r.cand, sets[e.From]...)
			addWeight(r.cand[lo:], &e.W)
			r.ends = append(r.ends, len(r.cand))
			if uses[e.From]--; uses[e.From] == 0 {
				sets[e.From] = nil
			}
		}
		sets[n] = r.reduce()
	}
	return sets[g.Sink()]
}

// addWeight adds the edge's event counts to every stack of the block.
func addWeight(block []stacks.Stack, w *depgraph.Weight) {
	for _, p := range w {
		if p.N == 0 {
			continue
		}
		for k := range block {
			block[k].Counts[p.Ev] += float64(p.N)
		}
	}
}

// reducer applies the paper's three reduction rules to the candidate paths
// arriving at one node. Its slices are scratch reused across the nodes of a
// segment.
//
// The candidates arrive in blocks, one per in-edge: block b is
// cand[ends[b-1]:ends[b]], the predecessor's set plus the edge weight.
// Every reduced set is free of dominated paths and duplicates, and adding
// one integer-count weight to all of a set's stacks keeps it so, so
// dominance only needs checking across blocks.
type reducer struct {
	base *stacks.Latencies
	opts *Options

	cand  []stacks.Stack
	ends  []int
	mask  []uint64
	alive []bool
	keys  []totalKey
	evs   []int
	pen   []float64
	uniq  []bool
}

// totalKey is a survivor's baseline total and candidate index.
type totalKey struct {
	total float64
	idx   int
}

// reduce returns the surviving stacks of r.cand, longest (at the baseline
// assignment) first, in a newly allocated slice of their exact count.
//
// The result must equal, stack for stack and in order, that of an all-pairs
// dominance pass (the earliest copy of every maximal stack, in index order),
// an unstable sort.Slice by descending baseline total, greedy merging and the
// hard cap: the oracle in reduce_ref_test.go. Ties make the order matter; the
// sort below sees the same input order and makes the same comparisons, so it
// produces the same permutation.
func (r *reducer) reduce() []stacks.Stack {
	cand, n := r.cand, len(r.cand)
	if n == 1 {
		return []stacks.Stack{cand[0]}
	}
	r.alive = grow(r.alive, n)
	r.mask = grow(r.mask, n)
	alive, mask := r.alive, r.mask
	for i := range alive {
		alive[i] = true
		mask[i] = cand[i].Support()
	}

	// Dominance elimination (lossless). Counts are non-negative, so s can
	// only dominate o when o's support is a subset of s's.
	start := 0
	for _, end := range r.ends {
		for i := start; i < end; i++ {
			if !alive[i] {
				continue
			}
			mi := mask[i]
			for j := end; j < n; j++ {
				if !alive[j] {
					continue
				}
				mj := mask[j]
				if mj&^mi == 0 && cand[i].Dominates(&cand[j]) {
					alive[j] = false
				} else if mi&^mj == 0 && cand[j].Dominates(&cand[i]) {
					alive[i] = false
					break
				}
			}
		}
		start = end
	}
	keys := r.keys[:0]
	for i := range cand {
		if alive[i] {
			keys = append(keys, totalKey{idx: i})
		}
	}
	r.keys = keys
	if r.opts.DisableMerge || len(keys) == 1 {
		return r.collect(keys)
	}

	// Order by baseline total, descending, so merging always keeps the more
	// performance-critical path.
	for k := range keys {
		keys[k].total = cand[keys[k].idx].Total(r.base)
	}
	sort.Sort(r)

	// Penalty vectors, computed once per survivor, hold only the events
	// some survivor has (the others are zero in every pair) in event order;
	// survivor k's vector is pen[k*d : k*d+d].
	m := len(keys)
	var union uint64
	for k := range keys {
		union |= mask[keys[k].idx]
		alive[k] = true
	}
	evs := r.evs[:0]
	for ; union != 0; union &= union - 1 {
		evs = append(evs, bits.TrailingZeros64(union))
	}
	r.evs = evs
	d := len(evs)
	r.pen = grow(r.pen, m*d)
	pen := r.pen
	for k := range keys {
		c, row := &cand[keys[k].idx], pen[k*d:k*d+d]
		for x, e := range evs {
			row[x] = c.Counts[e] * r.base[e]
		}
	}
	unique := r.uniqueFlags(keys)
	for i := 0; i < m; i++ {
		if !alive[i] {
			continue
		}
		pi := pen[i*d : i*d+d]
		for j := i + 1; j < m; j++ {
			if !alive[j] || unique[j] {
				continue
			}
			if stacks.PenaltySimilarity(pi, pen[j*d:j*d+d]) >= r.opts.CosineThreshold {
				alive[j] = false
			}
		}
	}
	out := 0
	for k := 0; k < m; k++ {
		if alive[k] {
			keys[out] = keys[k]
			copy(pen[out*d:out*d+d], pen[k*d:k*d+d])
			out++
		}
	}
	keys = keys[:out]

	// Hard cap: force-merge beyond the limit, absorbing each non-unique
	// path into its most similar longer survivor — an adaptive similarity
	// threshold rather than an arbitrary drop. Dropping by size instead
	// would discard exactly the short-at-baseline paths that become
	// critical when latencies shrink.
	if r.opts.MaxStacks > 0 && len(keys) > r.opts.MaxStacks {
		unique = r.uniqueFlags(keys)
		type victim struct {
			k   int
			sim float64
		}
		// For every non-unique stack, its best similarity to any
		// longer-total stack (keys are sorted descending).
		var vics []victim
		for j := 1; j < len(keys); j++ {
			if unique[j] {
				continue
			}
			best := -1.0
			for i := 0; i < j; i++ {
				if s := stacks.PenaltySimilarity(pen[i*d:i*d+d], pen[j*d:j*d+d]); s > best {
					best = s
				}
			}
			vics = append(vics, victim{j, best})
		}
		sort.Slice(vics, func(a, b int) bool { return vics[a].sim > vics[b].sim })
		for k := range keys {
			alive[k] = true
		}
		for _, v := range vics[:min(len(vics), len(keys)-r.opts.MaxStacks)] {
			alive[v.k] = false
		}
		out = 0
		for k := range keys {
			if alive[k] {
				keys[out] = keys[k]
				out++
			}
		}
		keys = keys[:out]
	}
	return r.collect(keys)
}

// Len, Less and Swap order r.keys by descending total for sort.Sort, which
// runs the same pdqsort as sort.Slice: the same comparisons on the same input
// order give the same permutation, ties included.
func (r *reducer) Len() int           { return len(r.keys) }
func (r *reducer) Less(a, b int) bool { return r.keys[a].total > r.keys[b].total }
func (r *reducer) Swap(a, b int)      { r.keys[a], r.keys[b] = r.keys[b], r.keys[a] }

// collect copies the candidates named by keys into a new slice.
func (r *reducer) collect(keys []totalKey) []stacks.Stack {
	out := make([]stacks.Stack, len(keys))
	for k := range keys {
		out[k] = r.cand[keys[k].idx]
	}
	return out
}

// uniqueFlags marks, among the survivors named by keys, those holding a
// nonzero event count that no other survivor holds. When preservation is
// disabled, no stack is unique.
func (r *reducer) uniqueFlags(keys []totalKey) []bool {
	r.uniq = grow(r.uniq, len(keys))
	flags := r.uniq
	clear(flags)
	if !r.opts.PreserveUnique {
		return flags
	}
	var holders [stacks.NumEvents]int
	for i := range holders {
		holders[i] = -1 // -1: none, -2: several
	}
	for k := range keys {
		for sup := r.mask[keys[k].idx]; sup != 0; sup &= sup - 1 {
			e := bits.TrailingZeros64(sup)
			if holders[e] == -1 {
				holders[e] = k
			} else {
				holders[e] = -2
			}
		}
	}
	for _, h := range holders {
		if h >= 0 {
			flags[h] = true
		}
	}
	return flags
}

// grow returns s resized to n elements, reallocating only when its capacity
// is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	return s[:n]
}
