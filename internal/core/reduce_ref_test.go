package core

// The reduction as it was before the single-pass kernel in reduce.go: a
// dominance pass over all pairs, a sort.Slice that recomputes baseline totals
// on every comparison, and similarity on stacks. It is the oracle the kernel
// must match stack for stack, in the same order. Kept verbatim apart from
// the ref prefix on the names.

import (
	"sort"

	"repro/internal/depgraph"
	"repro/internal/stacks"
)

// refGenerate is the traversal that drove refReduceSet.
func refGenerate(g *depgraph.Graph, base *stacks.Latencies, opts *Options) []stacks.Stack {
	sets := make([][]stacks.Stack, g.NumNodes())
	var cand []stacks.Stack
	for _, n := range g.EvalOrder() {
		in := g.In(n)
		if len(in) == 0 {
			sets[n] = []stacks.Stack{{}}
			continue
		}
		cand = cand[:0]
		for _, e := range in {
			for _, s := range sets[e.From] {
				cand = append(cand, refAddWeight(s, &e.W))
			}
		}
		if len(cand) == 1 {
			sets[n] = []stacks.Stack{cand[0]}
			continue
		}
		sets[n] = refReduceSet(append([]stacks.Stack(nil), cand...), base, opts)
	}
	return sets[g.Sink()]
}

// refAddWeight returns s plus the edge's event counts.
func refAddWeight(s stacks.Stack, w *depgraph.Weight) stacks.Stack {
	for _, p := range w {
		if p.N != 0 {
			s.Counts[p.Ev] += float64(p.N)
		}
	}
	return s
}

// refReduceSet applies the paper's three reduction rules in place and returns
// the surviving stacks, longest (at the baseline assignment) first.
func refReduceSet(set []stacks.Stack, base *stacks.Latencies, opts *Options) []stacks.Stack {
	set = refDominanceFilter(set)
	if opts.DisableMerge || len(set) == 1 {
		return set
	}

	// Order by baseline total, descending, so merging always keeps the more
	// performance-critical path.
	sort.Slice(set, func(i, j int) bool {
		return set[i].Total(base) > set[j].Total(base)
	})

	unique := refUniqueFlags(set, opts.PreserveUnique)

	alive := make([]bool, len(set))
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < len(set); i++ {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < len(set); j++ {
			if !alive[j] || unique[j] {
				continue
			}
			if stacks.Similarity(&set[i], &set[j], base) >= opts.CosineThreshold {
				alive[j] = false
			}
		}
	}
	out := set[:0]
	for i, s := range set {
		if alive[i] {
			out = append(out, s)
		}
	}

	// Hard cap: force-merge beyond the limit, absorbing each non-unique
	// path into its most similar longer survivor — an adaptive similarity
	// threshold rather than an arbitrary drop. Dropping by size instead
	// would discard exactly the short-at-baseline paths that become
	// critical when latencies shrink.
	if opts.MaxStacks > 0 && len(out) > opts.MaxStacks {
		unique = refUniqueFlags(out, opts.PreserveUnique)
		type victim struct {
			idx int
			sim float64
		}
		// For every non-unique stack, its best similarity to any
		// longer-total stack (out is sorted descending).
		var vics []victim
		for j := 1; j < len(out); j++ {
			if unique[j] {
				continue
			}
			best := -1.0
			for i := 0; i < j; i++ {
				if s := stacks.Similarity(&out[i], &out[j], base); s > best {
					best = s
				}
			}
			vics = append(vics, victim{j, best})
		}
		sort.Slice(vics, func(a, b int) bool { return vics[a].sim > vics[b].sim })
		excess := len(out) - opts.MaxStacks
		drop := make(map[int]bool, excess)
		for _, v := range vics {
			if excess == 0 {
				break
			}
			drop[v.idx] = true
			excess--
		}
		kept := out[:0]
		for i, s := range out {
			if !drop[i] {
				kept = append(kept, s)
			}
		}
		out = kept
	}
	return out
}

// refDominanceFilter removes every stack that is componentwise dominated by
// another (it can never be the longest under any non-negative latency
// assignment). Exact duplicates keep one copy.
func refDominanceFilter(set []stacks.Stack) []stacks.Stack {
	alive := make([]bool, len(set))
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < len(set); i++ {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < len(set); j++ {
			if !alive[j] {
				continue
			}
			if set[i].Dominates(&set[j]) {
				alive[j] = false
			} else if set[j].Dominates(&set[i]) {
				alive[i] = false
				break
			}
		}
	}
	out := set[:0]
	for i, s := range set {
		if alive[i] {
			out = append(out, s)
		}
	}
	return out
}

// refUniqueFlags marks stacks holding a nonzero event count that no other stack
// in the set holds. When preservation is disabled, no stack is unique.
func refUniqueFlags(set []stacks.Stack, preserve bool) []bool {
	flags := make([]bool, len(set))
	if !preserve {
		return flags
	}
	var holders [stacks.NumEvents]int
	for i := range holders {
		holders[i] = -1 // -1: none, -2: several
	}
	for i := range set {
		for e := range set[i].Counts {
			if set[i].Counts[e] == 0 {
				continue
			}
			switch holders[e] {
			case -1:
				holders[e] = i
			default:
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
