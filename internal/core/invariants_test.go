package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// TestPaperInvariants checks, on every workload and every segment, the
// properties RpStacks rests on, against the segment's own dependence graph:
//
//   - exact at baseline: the longest representative stack under the
//     baseline latencies is the graph's longest path;
//   - never over-predicts: at integer latency points no stack is longer than
//     the graph's longest path, because every stack is a real path;
//   - monotone: raising one latency never shortens the longest stack.
//
// The points scale each event's latency by ¼, ½, 1, 2 and 4 (rounded up to
// whole cycles) and bump it by three cycles.
func TestPaperInvariants(t *testing.T) {
	cfg := config.Baseline()
	opts := DefaultOptions()
	opts.SegmentLength = 1000
	for i, name := range workload.Names() {
		if !inSample(i, 3) {
			continue
		}
		prof, _ := workload.ByName(name)
		tr := simTrace(t, cfg, workload.Stream(prof, 42, 2000))
		a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
		if err != nil {
			t.Fatal(err)
		}
		for si := range a.Segments {
			seg := &a.Segments[si]
			g, err := depgraph.Build(tr, &cfg.Structure, seg.Lo, seg.Hi)
			if err != nil {
				t.Fatal(err)
			}
			ev := g.NewEvaluator()
			check := func(l *stacks.Latencies) float64 {
				_, got := seg.MaxStack(l)
				if lp := float64(ev.LongestPath(l)); got > lp {
					t.Fatalf("%s segment %d: stack of %g cycles exceeds the longest path %g under %v", name, si, got, lp, *l)
				}
				return got
			}
			base := check(&cfg.Lat)
			if lp := float64(ev.LongestPath(&cfg.Lat)); base != lp {
				t.Fatalf("%s segment %d: baseline prediction %g, longest path %g", name, si, base, lp)
			}
			for e := stacks.Event(1); e < stacks.NumEvents; e++ {
				prev := 0.0
				for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
					l := cfg.Lat.Scale(e, f)
					got := check(&l)
					if got < prev {
						t.Fatalf("%s segment %d: %s ×%g predicts %g, below %g at the smaller latency", name, si, e, f, got, prev)
					}
					prev = got
				}
				l := cfg.Lat.With(e, cfg.Lat[e]+3)
				if got := check(&l); got < base {
					t.Fatalf("%s segment %d: %s +3 predicts %g, below the baseline %g", name, si, e, got, base)
				}
			}
		}
	}
}
