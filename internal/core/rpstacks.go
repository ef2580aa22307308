// Package core implements RpStacks, the paper's primary contribution: from a
// single simulation's dependence graph it extracts a small set of
// representative stall-event stacks — the penalty decompositions of the
// distinctive performance-critical execution paths — and predicts the cycle
// count of any latency configuration of the same structure by re-weighting
// those stacks and taking, per segment, the longest (Sections III and IV of
// the paper).
package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/stacks"
	"repro/internal/trace"
)

// Options controls RpStacks generation. The defaults are the parameters the
// paper selects in its sensitivity study (Section V-D): segment length 5000,
// cosine threshold 0.7, uniqueness preservation on.
type Options struct {
	// SegmentLength is the dependence-graph segmentation granularity in
	// µops; boundaries snap forward to macro-op starts.
	SegmentLength int
	// CosineThreshold is the modified-cosine similarity above which two
	// paths merge (the larger-penalty path survives).
	CosineThreshold float64
	// PreserveUnique exempts paths holding an event kind no other surviving
	// path holds from merging and capping.
	PreserveUnique bool
	// MaxStacks caps the per-node path set; smallest non-unique paths are
	// dropped beyond it. Zero means no cap.
	MaxStacks int
	// DisableMerge turns off similarity merging and capping, leaving only
	// the lossless dominance elimination. Predictions are then exactly the
	// graph-reconstruction longest path for every configuration — used by
	// tests and ablations; exponential in the worst case.
	DisableMerge bool
	// Parallelism is the number of workers that run the analysis. They
	// share the nodes of every admitted segment graph: independent
	// segments (Section III-C) and independent paths inside one segment
	// proceed in parallel. Zero or one means one worker. It is an
	// execution parameter: results are bit-identical for any worker count.
	Parallelism int
}

// DefaultOptions returns the paper's chosen execution parameters.
func DefaultOptions() Options {
	return Options{
		SegmentLength:   5000,
		CosineThreshold: 0.7,
		PreserveUnique:  true,
		MaxStacks:       64,
	}
}

// Validate checks the options.
func (o *Options) Validate() error {
	if o.SegmentLength <= 0 {
		return fmt.Errorf("core: segment length must be positive, got %d", o.SegmentLength)
	}
	if !(o.CosineThreshold >= 0 && o.CosineThreshold <= 1) { // NaN fails both
		return fmt.Errorf("core: cosine threshold %g outside [0, 1]", o.CosineThreshold)
	}
	if o.MaxStacks < 0 {
		return fmt.Errorf("core: negative stack cap %d", o.MaxStacks)
	}
	return nil
}

// Segment holds the representative stall-event stacks of one graph segment.
type Segment struct {
	Lo, Hi int // µop window of the underlying trace
	Stacks []stacks.Stack
}

// MaxStack returns the longest stack of the segment under the latency
// assignment and its length.
func (s *Segment) MaxStack(l *stacks.Latencies) (stacks.Stack, float64) {
	best := 0
	bestTotal := s.Stacks[0].Total(l)
	for i := 1; i < len(s.Stacks); i++ {
		if t := s.Stacks[i].Total(l); t > bestTotal {
			best, bestTotal = i, t
		}
	}
	return s.Stacks[best], bestTotal
}

// Analysis is the output of one RpStacks run: per-segment representative
// stacks, re-weightable for any latency configuration without touching the
// simulator or the graph again.
type Analysis struct {
	Segments []Segment
	Baseline stacks.Latencies
	MicroOps int
	Opts     Options
}

// Analyze runs the full RpStacks pipeline on a dynamic trace: segmentation,
// per-segment dependence-graph construction, multi-path traversal with
// reduction, and representative stack extraction. The baseline latency
// assignment is the one the trace was simulated under; it anchors the
// similarity metric.
func Analyze(tr *trace.Trace, st *config.Structure, baseline *stacks.Latencies, opts Options) (*Analysis, error) {
	return AnalyzeRange(tr, st, baseline, opts, 0, len(tr.Records))
}

// AnalyzeRange runs the RpStacks pipeline over the µop window [from, to) of
// the trace — the per-SimPoint entry point for sampled analysis. The window
// must start at a macro-op boundary.
func AnalyzeRange(tr *trace.Trace, st *config.Structure, baseline *stacks.Latencies, opts Options, from, to int) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if from < 0 || to > len(tr.Records) || from >= to {
		return nil, fmt.Errorf("core: invalid window [%d, %d) of %d records", from, to, len(tr.Records))
	}
	a := &Analysis{Baseline: *baseline, MicroOps: to - from, Opts: opts}
	wins := segmentWindows(tr, from, to, opts.SegmentLength)
	sets, err := generateSegments(len(wins), func(i int) (*depgraph.Graph, error) {
		return depgraph.Build(tr, st, wins[i].lo, wins[i].hi)
	}, baseline, &opts)
	if err != nil {
		return nil, err
	}
	a.Segments = make([]Segment, len(wins))
	for i, w := range wins {
		a.Segments[i] = Segment{Lo: w.lo, Hi: w.hi, Stacks: sets[i]}
	}
	return a, nil
}

// window is the µop range [lo, hi) of one segment.
type window struct{ lo, hi int }

// segmentWindows splits [from, to) into segments of about length µops.
// Boundaries snap forward to the next macro-op start so commit atomicity
// never references across segments.
func segmentWindows(tr *trace.Trace, from, to, length int) []window {
	var wins []window
	for lo := from; lo < to; {
		hi := min(lo+length, to)
		for hi < to && !tr.Records[hi].SoM {
			hi++
		}
		wins = append(wins, window{lo, hi})
		lo = hi
	}
	return wins
}

// AnalyzeGraph runs RpStacks generation over a single prebuilt graph,
// without segmentation, on the scheduler Analyze uses: opts.Parallelism
// workers (zero or one: one) run the graph's nodes. It is exposed for tests
// and tools that study one window.
func AnalyzeGraph(g *depgraph.Graph, baseline *stacks.Latencies, opts Options) []stacks.Stack {
	sets, _ := generateSegments(1, func(int) (*depgraph.Graph, error) { return g, nil }, baseline, &opts)
	return sets[0]
}

// Predict estimates the cycle count of the traced region under a latency
// assignment: per segment, the longest representative stack wins; segment
// winners add up (the paper's segment-stack summation). The cost is
// O(segments · stacks · events), independent of trace length and simulator.
//
// Predict only reads the analysis, so any number of goroutines may call it
// concurrently on a shared Analysis — parallel design-space sweeps
// (dse.RpStacksEngine) rely on this. Dense sweeps should prefer a
// BatchPredictor, which re-weights the stacks for K design points per pass
// with bit-identical results.
func (a *Analysis) Predict(l *stacks.Latencies) float64 {
	var total float64
	for i := range a.Segments {
		_, t := a.Segments[i].MaxStack(l)
		total += t
	}
	return total
}

// PredictCPI returns the predicted cycles per µop under a latency
// assignment.
func (a *Analysis) PredictCPI(l *stacks.Latencies) float64 {
	if a.MicroOps == 0 {
		return 0
	}
	return a.Predict(l) / float64(a.MicroOps)
}

// Representative returns the whole-trace stall-event stack under a latency
// assignment: the sum of each segment's winning stack. Its Total equals
// Predict, and its per-event decomposition is the CPI-stack the paper plots
// (Figures 5, 6 and 12).
func (a *Analysis) Representative(l *stacks.Latencies) stacks.Stack {
	var sum stacks.Stack
	for i := range a.Segments {
		s, _ := a.Segments[i].MaxStack(l)
		sum.AddStack(&s)
	}
	return sum
}

// NumStacks returns the total representative stack count across segments —
// the footprint that makes per-configuration prediction cheap.
func (a *Analysis) NumStacks() int {
	n := 0
	for i := range a.Segments {
		n += len(a.Segments[i].Stacks)
	}
	return n
}
