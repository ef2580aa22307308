package core

import (
	"fmt"

	"repro/internal/stacks"
)

// BatchPredictor re-weights the representative stacks of an Analysis for K
// design points per pass, the RpStacks counterpart of
// depgraph.BatchEvaluator: where Predict walks segments × stacks × events
// once per design point, a BatchPredictor walks them once per batch,
// updating K total lanes per stack.
//
// The K latency columns are transposed up front into an event-major
// struct-of-arrays matrix (lats[e*K+lane]), so the per-stack inner loop
// streams contiguous lanes: for each event the stack holds, one multiply-add
// across the K lanes. Summation order per lane is exactly Predict's —
// events in taxonomy order within a stack, segment winners by strict
// greater-than with the first maximum kept, winners summed in segment order
// — and events a stack does not hold contribute nothing. For the
// non-negative latencies of the design space (Latencies.Validate rejects
// negative values) a zero-count term adds an exact +0.0 in Predict too, so
// batch predictions are bit-identical float64s to the scalar path, not
// merely close.
//
// A BatchPredictor allocates O(events·K) once; every batch after that is
// allocation-free. It only reads the Analysis, so any number of predictors
// may share one Analysis concurrently, but a single BatchPredictor is not
// goroutine-safe.
type BatchPredictor struct {
	a    *Analysis
	k    int
	lats []float64 // event-major latency columns: lats[e*k+lane]
	tot  []float64 // per-stack totals, one lane each
	best []float64 // per-segment winning totals, one lane each
}

// NewBatchPredictor returns a K-lane prediction scratch bound to a. Lane
// counts below one are raised to one.
func (a *Analysis) NewBatchPredictor(k int) *BatchPredictor {
	if k < 1 {
		k = 1
	}
	return &BatchPredictor{
		a:    a,
		k:    k,
		lats: make([]float64, int(stacks.NumEvents)*k),
		tot:  make([]float64, k),
		best: make([]float64, k),
	}
}

// Width returns the lane count K the predictor was built for: the maximum
// number of design points one Predict call may evaluate.
func (p *BatchPredictor) Width() int { return p.k }

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
	// Transpose the latency columns so the stack loop below streams lanes
	// contiguously per event.
	for e := 0; e < int(stacks.NumEvents); e++ {
		row := p.lats[e*k : e*k+m]
		for lane := range row {
			row[lane] = points[lane][e]
		}
	}
	out = out[:m]
	for lane := range out {
		out[lane] = 0
	}
	tot, best := p.tot[:m], p.best[:m]
	for si := range p.a.Segments {
		seg := &p.a.Segments[si]
		for sj := range seg.Stacks {
			st := &seg.Stacks[sj]
			for lane := range tot {
				tot[lane] = 0
			}
			for e := 0; e < int(stacks.NumEvents); e++ {
				c := st.Counts[e]
				if c == 0 {
					continue
				}
				// Four lanes per step. Each lane's sum is unchanged; the
				// longer body keeps the loop's speed from hinging on where
				// the linker happens to place it.
				t, row := tot, p.lats[e*k:e*k+m]
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
			if sj == 0 {
				copy(best, tot)
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
