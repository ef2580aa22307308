package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/workload"
)

// TestParallelAnalysisDeterministic: analyzing with several workers yields
// exactly the one-worker result, segment for segment and stack for stack —
// with many segments side by side, and inside one whole-trace segment.
func TestParallelAnalysisDeterministic(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("450.soplex")
	tr := simTrace(t, cfg, workload.Stream(prof, 13, 12000))

	for _, segLen := range []int{1500, len(tr.Records)} {
		seq := DefaultOptions()
		seq.SegmentLength = segLen
		par := seq
		par.Parallelism = 4

		a, err := Analyze(tr, &cfg.Structure, &cfg.Lat, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Analyze(tr, &cfg.Structure, &cfg.Lat, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Segments) != len(b.Segments) {
			t.Fatalf("segment length %d: segment counts differ: %d vs %d", segLen, len(a.Segments), len(b.Segments))
		}
		for i := range a.Segments {
			sa, sb := a.Segments[i], b.Segments[i]
			if sa.Lo != sb.Lo || sa.Hi != sb.Hi || len(sa.Stacks) != len(sb.Stacks) {
				t.Fatalf("segment length %d: segment %d differs structurally", segLen, i)
			}
			for j := range sa.Stacks {
				if sa.Stacks[j] != sb.Stacks[j] {
					t.Fatalf("segment length %d: segment %d stack %d differs", segLen, i, j)
				}
			}
		}
		if a.Predict(&cfg.Lat) != b.Predict(&cfg.Lat) {
			t.Fatalf("segment length %d: predictions differ", segLen)
		}
	}
}

// TestSchedulerBoundsLiveGraphs: however many segments a trace has, the
// scheduler holds at most workers+1 segment graphs at a time. Each build
// checks how many segments are admitted and not yet complete.
func TestSchedulerBoundsLiveGraphs(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("429.mcf")
	tr := simTrace(t, cfg, workload.Stream(prof, 3, 6000))
	opts := DefaultOptions()
	opts.SegmentLength = 250
	ref, err := Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
	if err != nil {
		t.Fatal(err)
	}
	segs := ref.Segments
	if len(segs) < 16 {
		t.Fatalf("only %d segments", len(segs))
	}
	for _, workers := range []int{1, 2, 3} {
		opts.Parallelism = workers
		var s *scheduler
		peak := 0
		build := func(i int) (*depgraph.Graph, error) {
			s.mu.Lock()
			live := s.next - (len(segs) - s.left)
			peak = max(peak, live)
			s.mu.Unlock()
			return depgraph.Build(tr, &cfg.Structure, segs[i].Lo, segs[i].Hi)
		}
		s = newScheduler(len(segs), build, &cfg.Lat, &opts)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if peak > workers+1 {
			t.Errorf("%d workers: %d segment graphs live at once, want at most %d", workers, peak, workers+1)
		}
		for i := range segs {
			if len(s.sets[i]) != len(segs[i].Stacks) {
				t.Fatalf("%d workers: segment %d has %d stacks, want %d", workers, i, len(s.sets[i]), len(segs[i].Stacks))
			}
			for j := range s.sets[i] {
				if s.sets[i][j] != segs[i].Stacks[j] {
					t.Fatalf("%d workers: segment %d stack %d differs", workers, i, j)
				}
			}
		}
	}
}
