package stacks

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Latencies assigns a cycle cost to every event kind. It is the latency
// domain of the design space: a design point is one Latencies value for a
// fixed structure. Base must always be 1.
type Latencies [NumEvents]float64

// Lat returns the cycle cost of the event kind.
func (l *Latencies) Lat(e Event) float64 { return l[e] }

// Validate checks that the latency assignment is self-consistent: Base is
// exactly one cycle and every kind is positive except the TLB penalties and
// Store, which may be zero.
func (l *Latencies) Validate() error {
	if l[Base] != 1 {
		return fmt.Errorf("stacks: Base latency must be 1, got %g", l[Base])
	}
	for e := Event(0); e < NumEvents; e++ {
		if l[e] < 0 {
			return fmt.Errorf("stacks: %s latency is negative (%g)", e, l[e])
		}
		switch e {
		case ITLB, DTLB, Store:
		default:
			if l[e] == 0 {
				return fmt.Errorf("stacks: %s latency must be positive", e)
			}
		}
	}
	return nil
}

// With returns a copy of l with the latency of e replaced.
func (l Latencies) With(e Event, cycles float64) Latencies {
	l[e] = cycles
	return l
}

// Scale returns a copy of l with the latency of e multiplied by factor and
// rounded up to a whole cycle (hardware latencies are integral), but never
// below one cycle.
func (l Latencies) Scale(e Event, factor float64) Latencies {
	v := math.Ceil(l[e] * factor)
	if v < 1 {
		v = 1
	}
	l[e] = v
	return l
}

// Stack is a stall-event stack: per event kind, the number of times the
// event's latency is paid along one execution path. For Base the count is
// the raw number of un-optimizable cycles.
type Stack struct {
	Counts [NumEvents]float64
}

// Add accumulates n occurrences of event e.
func (s *Stack) Add(e Event, n float64) { s.Counts[e] += n }

// AddStack accumulates every component of o into s.
func (s *Stack) AddStack(o *Stack) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Total returns the length in cycles of the path under the given latency
// assignment: the dot product of event counts and event latencies.
func (s *Stack) Total(l *Latencies) float64 {
	var t float64
	for i := range s.Counts {
		t += s.Counts[i] * l[i]
	}
	return t
}

// Penalties returns the per-event cycle decomposition of the path under the
// given latency assignment (the bars of a stall-event stack plot).
func (s *Stack) Penalties(l *Latencies) [NumEvents]float64 {
	var p [NumEvents]float64
	for i := range s.Counts {
		p[i] = s.Counts[i] * l[i]
	}
	return p
}

// Support returns a bitmask with bit e set when the stack has a nonzero
// count for event e. NumEvents must stay below 64 for this representation.
func (s *Stack) Support() uint64 {
	var m uint64
	for i := range s.Counts {
		if s.Counts[i] != 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Dominates reports whether every component of s is at least the matching
// component of o. When s dominates o, path o can never be longer than path s
// under any non-negative latency assignment, so o may be discarded without
// loss of prediction accuracy.
func (s *Stack) Dominates(o *Stack) bool {
	for i := range s.Counts {
		if s.Counts[i] < o.Counts[i] {
			return false
		}
	}
	return true
}

// Scaled returns a copy of s with every count multiplied by w. It is used to
// combine SimPoint representative stacks with their cluster weights.
func (s *Stack) Scaled(w float64) Stack {
	var out Stack
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] * w
	}
	return out
}

// IsZero reports whether the stack holds no events at all.
func (s *Stack) IsZero() bool {
	for i := range s.Counts {
		if s.Counts[i] != 0 {
			return false
		}
	}
	return true
}

// Similarity computes the paper's modified cosine similarity (Figure 9)
// between the penalty vectors of two stacks under the given latency
// assignment. Each dimension is first normalized by the larger of the two
// magnitudes, so that a dimension where the paths agree contributes fully
// regardless of its absolute size; the result is the cosine of the angle
// between the normalized vectors, in [0, 1]. Two zero vectors are defined to
// be identical (similarity 1).
func Similarity(a, b *Stack, l *Latencies) float64 {
	pa, pb := a.Penalties(l), b.Penalties(l)
	return PenaltySimilarity(pa[:], pb[:])
}

// PenaltySimilarity is Similarity on penalty vectors (Stack.Penalties) of
// equal length, for callers that compare each stack many times. Penalties
// must be non-negative and finite, as counts and latencies are. A dimension
// that is zero in both vectors contributes exactly nothing, so callers may
// drop the dimensions zero in all of their vectors, keeping the rest in
// event order, and get the same result.
//
// In each dimension the larger value normalizes to exactly 1 (x/x == 1), so
// only the smaller one is divided: r = min/max. The normalized pair is then
// (1, r) or (r, 1), and dot, na and nb accumulate r, 1 and r*r in index
// order; a dimension where both are zero adds 0 to each sum. The order of
// non-negative floats is the order of their bits, so every choice is an
// integer select the compiler turns into a conditional move: the loop has no
// data-dependent branch.
func PenaltySimilarity(pa, pb []float64) float64 {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	pb = pb[:len(pa)]
	var dot, na, nb float64
	for i := range pa {
		ua, ub := math.Float64bits(pa[i]), math.Float64bits(pb[i])
		hi := max(ua, ub)
		if hi == 0 {
			hi = one // both zero: r = 0
		}
		r := math.Float64frombits(min(ua, ub)) / math.Float64frombits(hi)
		// The larger side normalizes to 1, the other to r; on a tie r*r is
		// 1 as well, and when both are zero hi matches neither.
		ta := math.Float64bits(r * r)
		tb := ta
		if ua == hi {
			ta = one
		}
		if ub == hi {
			tb = one
		}
		dot += r
		na += math.Float64frombits(ta)
		nb += math.Float64frombits(tb)
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Guard against floating-point drift outside [0, 1].
	if sim > 1 {
		sim = 1
	}
	if sim < 0 {
		sim = 0
	}
	return sim
}

// Format renders the nonzero components of the stack under the given latency
// assignment, largest first, as a compact single-line summary.
func (s *Stack) Format(l *Latencies) string {
	type comp struct {
		e Event
		c float64
	}
	var comps []comp
	for i := range s.Counts {
		if c := s.Counts[i] * l[i]; c != 0 {
			comps = append(comps, comp{Event(i), c})
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].c > comps[j].c })
	var b strings.Builder
	fmt.Fprintf(&b, "total=%.0f [", s.Total(l))
	for i, c := range comps {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.0f", c.e, c.c)
	}
	b.WriteString("]")
	return b.String()
}
