package depgraph

import (
	"repro/internal/stacks"
)

// Interaction costs, after Fields et al. ([10] and [12] in the paper) — the
// critical-path toolkit RpStacks builds on. Interaction cost tells whether
// two event classes overlap (parallel penalties, icost > 0), are
// independent (icost = 0) or serialize (icost < 0).

// InteractionCost measures how two event kinds interact on the critical path
// (Fields et al.'s icost): with cost(X) = LP(base) - LP(X zeroed),
//
//	icost(A,B) = cost(A ∪ B) - cost(A) - cost(B).
//
// Positive values mean the events' penalties overlap in parallel: removing
// either alone buys little because the other still covers the cycles, so
// both must be optimized together — the paper's Figure 1a situation. Zero
// means independent; negative means serial interaction (removing one also
// removes part of the other's cost, e.g. a miss and the resource stall it
// causes). "Zeroed" sets the event's latency to zero except Base, whose
// floor is one cycle.
func (g *Graph) InteractionCost(l *stacks.Latencies, a, b stacks.Event) int64 {
	zero := func(ev stacks.Event, in stacks.Latencies) stacks.Latencies {
		out := in
		if ev == stacks.Base {
			out[ev] = 1
		} else {
			out[ev] = 0
		}
		return out
	}
	base := g.LongestPath(l)
	la := zero(a, *l)
	lb := zero(b, *l)
	lab := zero(b, la)
	costA := base - g.LongestPath(&la)
	costB := base - g.LongestPath(&lb)
	costAB := base - g.LongestPath(&lab)
	return costAB - costA - costB
}
