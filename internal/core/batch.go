package core

import (
	"fmt"
	"math"

	"repro/internal/stacks"
)

// BatchPredictor re-weights the representative stacks of an Analysis for K
// design points per pass, the RpStacks counterpart of
// depgraph.BatchEvaluator: where Predict walks segments × stacks × events
// once per design point, a BatchPredictor walks them once per batch,
// updating K total lanes per stack.
//
// The K latency columns of the events some stack holds are transposed up
// front into an event-major struct-of-arrays matrix (lats[e*K+lane]), so the
// per-stack inner loop streams contiguous lanes: for each event the stack
// holds, one multiply-add across the K lanes. Summation order per lane is
// exactly Predict's — events in taxonomy order within a stack, segment
// winners by strict greater-than with the first maximum kept, winners summed
// in segment order — and events a stack does not hold contribute nothing.
// For the finite non-negative latencies of the design space
// (Latencies.Validate rejects anything else) a zero-count term adds an exact
// +0.0 in Predict too, so batch predictions are bit-identical float64s to
// the scalar path, not merely close.
//
// Each batch is screened before it is re-weighted: the transposition also
// records the batch's box, the least and greatest latency of every held
// event over its lanes. In a segment, a stack whose total at the box's top
// corner is below some stack's total at its bottom corner — by a relative
// margin far wider than float64 rounding — is below that stack on every
// lane, so it cannot be the segment's maximum and is skipped. The kept
// stacks include every lane's winner, so the screen changes no result bit
// (DESIGN.md §10 gives the argument).
//
// A BatchPredictor allocates O(events·(K+stacks)) once; every batch after
// that is allocation-free. It only reads the Analysis, so any number of predictors
// may share one Analysis concurrently, but a single BatchPredictor is not
// goroutine-safe.
type BatchPredictor struct {
	a    *Analysis
	k    int
	held []int // events some stack holds, in taxonomy order
	// terms holds, per stack in analysis order, its non-zero counts in
	// taxonomy order.
	terms [][]term
	lats  []float64 // event-major latency columns: lats[e*k+lane], held rows only
	tot   []float64 // per-stack totals, one lane each
	best  []float64 // per-segment winning totals, one lane each
	upper []float64 // per-stack totals at the box's top corner, one segment
	// screen is set when every count of the analysis is finite and
	// non-negative, the precondition of the screen's exactness argument.
	screen bool
	// evaluated and skipped count the stack-batches Predict re-weighted
	// and screened out: one per stack per call.
	evaluated, skipped int64
}

// term is one non-zero count c of event e in a stack.
type term struct {
	e int
	c float64
}

// screenMargin is the screen's relative margin δ. An n-term dot product of
// non-negative float64s is within a factor 1±γ of its exact value, γ ≈
// n·2⁻⁵³; with n ≤ NumEvents, δ = 2⁻³⁰ exceeds γ by a factor of ~10⁵.
const screenMargin = 0x1p-30

// NewBatchPredictor returns a K-lane prediction scratch bound to a. Lane
// counts below one are raised to one.
func (a *Analysis) NewBatchPredictor(k int) *BatchPredictor {
	if k < 1 {
		k = 1
	}
	var isHeld [stacks.NumEvents]bool
	screen := true
	terms := make([][]term, 0, a.NumStacks())
	widest := 0
	for i := range a.Segments {
		widest = max(widest, len(a.Segments[i].Stacks))
		for j := range a.Segments[i].Stacks {
			var ts []term
			for e, c := range a.Segments[i].Stacks[j].Counts {
				screen = screen && c >= 0 && c <= math.MaxFloat64 // NaN fails both
				if c != 0 {
					ts = append(ts, term{e, c})
					isHeld[e] = true
				}
			}
			terms = append(terms, ts)
		}
	}
	var held []int
	for e, h := range isHeld {
		if h {
			held = append(held, e)
		}
	}
	return &BatchPredictor{
		a:      a,
		k:      k,
		held:   held,
		terms:  terms,
		lats:   make([]float64, int(stacks.NumEvents)*k),
		tot:    make([]float64, k),
		best:   make([]float64, k),
		upper:  make([]float64, widest),
		screen: screen,
	}
}

// Width returns the lane count K the predictor was built for: the maximum
// number of design points one Predict call may evaluate.
func (p *BatchPredictor) Width() int { return p.k }

// StackBatches returns how many stack-batches the predictor's Predict calls
// have re-weighted and how many the screen skipped: each call adds one to
// either count for every stack of the analysis. The counts are the
// predictor's own, so they depend only on the batches it was given.
func (p *BatchPredictor) StackBatches() (evaluated, skipped int64) {
	return p.evaluated, p.skipped
}

// Predict evaluates up to Width design points in one pass over the analysis
// and writes the predicted cycle count of point i into out[i]. Each out[i]
// equals Analysis.Predict(&points[i]) bit for bit — for any batch size
// including ragged final batches shorter than Width. A batch longer than
// Width panics: the caller owns batch slicing.
func (p *BatchPredictor) Predict(points []stacks.Latencies, out []float64) {
	m := len(points)
	if m == 0 {
		return
	}
	if m > p.k {
		panic(fmt.Sprintf("core: batch of %d points exceeds predictor width %d", m, p.k))
	}
	if len(out) < m {
		panic(fmt.Sprintf("core: output buffer holds %d of %d batch results", len(out), m))
	}
	k := p.k
	// Transpose the held latency columns so the stack loop below streams
	// lanes contiguously per event, recording the batch's box on the way.
	// For non-negative floats the order of their bits is their numeric
	// order; NaN, ±Inf and negative values (sign bit set) all read above
	// MaxFloat64's bits and turn the screen off for this batch.
	var lo, hi stacks.Latencies
	screen := p.screen
	for _, e := range p.held {
		// A batch varies few knobs, so most rows hold one value: the
		// copy only ORs each lane's bits against lane 0's, and only a row
		// that differs takes its min and max.
		row := p.lats[e*k : e*k+m]
		b0 := math.Float64bits(points[0][e])
		var diff uint64
		for lane := range row {
			v := points[lane][e]
			row[lane] = v
			diff |= math.Float64bits(v) ^ b0
		}
		lb, hb := b0, b0
		if diff != 0 {
			for _, v := range row {
				b := math.Float64bits(v)
				lb, hb = min(lb, b), max(hb, b)
			}
		}
		screen = screen && hb <= math.Float64bits(math.MaxFloat64)
		lo[e], hi[e] = math.Float64frombits(lb), math.Float64frombits(hb)
	}
	out = out[:m]
	for lane := range out {
		out[lane] = 0
	}
	tot, best := p.tot[:m], p.best[:m]
	terms := p.terms
	for si := range p.a.Segments {
		sts := terms[:len(p.a.Segments[si].Stacks)]
		terms = terms[len(sts):]
		// floor is the best stack's total at the box's bottom corner, less
		// the margin; zero leaves the screen off for the segment. Below one
		// cycle, subnormal rounding could outweigh the relative margin. One
		// pass over each stack's non-zero counts yields both corners; it
		// costs less than re-weighting the stack even at one lane, where
		// the box is a point.
		floor, upper := 0.0, p.upper[:len(sts)]
		if screen && len(sts) > 1 {
			for sj, ts := range sts {
				var l, u float64
				for _, tm := range ts {
					l += tm.c * lo[tm.e]
					u += tm.c * hi[tm.e]
				}
				floor, upper[sj] = max(floor, l), u
			}
			if floor < 1 || floor > math.MaxFloat64 {
				floor = 0
			}
			floor *= 1 - screenMargin
		}
		seeded := false
		for sj := range sts {
			if floor > 0 && upper[sj]*(1+screenMargin) < floor {
				p.skipped++
				continue
			}
			p.evaluated++
			// The first kept stack accumulates straight into best.
			acc := tot
			if !seeded {
				acc = best
			}
			for lane := range acc {
				acc[lane] = 0
			}
			for _, tm := range sts[sj] {
				c := tm.c
				// Four lanes per step. Each lane's sum is unchanged; the
				// longer body keeps the loop's speed from hinging on where
				// the linker happens to place it.
				t, row := acc, p.lats[tm.e*k:tm.e*k+m]
				for ; len(t) >= 4; t, row = t[4:], row[4:] {
					t[0] += c * row[0]
					t[1] += c * row[1]
					t[2] += c * row[2]
					t[3] += c * row[3]
				}
				for lane := range t {
					t[lane] += c * row[lane]
				}
			}
			if !seeded {
				seeded = true
				continue
			}
			for lane := range best {
				if tot[lane] > best[lane] {
					best[lane] = tot[lane]
				}
			}
		}
		for lane := range out {
			out[lane] += best[lane]
		}
	}
}
