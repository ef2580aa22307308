package core

import (
	"sort"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/stacks"
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

// TestSchedulerBoundsFreeLists is the set-level twin of
// TestSchedulerBoundsLiveGraphs: after a run over many segments, each
// worker's free list of each set length holds at most the most sets of
// that length the worker had live at once, so the lists do not grow with
// the trace. No pooled set shares its backing array with another pooled
// set (a set recycled twice) or with any segment's sink set (a set the
// Analysis holds).
func TestSchedulerBoundsFreeLists(t *testing.T) {
	cfg := config.Baseline()
	prof, _ := workload.ByName("429.mcf")
	tr := simTrace(t, cfg, workload.Stream(prof, 3, 6000))
	wins := segmentWindows(tr, 0, len(tr.Records), 400)
	if len(wins) < 10 {
		t.Fatalf("only %d segments", len(wins))
	}
	build := func(i int) (*depgraph.Graph, error) {
		return depgraph.Build(tr, &cfg.Structure, wins[i].lo, wins[i].hi)
	}
	opts := DefaultOptions()
	for _, workers := range []int{1, 2, 3} {
		opts.Parallelism = workers
		s := newScheduler(len(wins), build, &cfg.Lat, &opts)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		type span struct {
			lo, hi uintptr
			what   string
		}
		var spans []span
		add := func(set []stacks.Stack, what string) {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(set)))
			spans = append(spans, span{lo, lo + uintptr(cap(set))*unsafe.Sizeof(set[0]), what})
		}
		pooled := 0
		for w := range s.red {
			for k, fl := range s.red[w].free {
				if len(fl.sets) > fl.peak {
					t.Errorf("%d workers: worker %d pools %d sets of length %d, more than its peak of %d live",
						workers, w, len(fl.sets), k, fl.peak)
				}
				for _, set := range fl.sets {
					if len(set) != k {
						t.Fatalf("%d workers: worker %d's list for length %d holds a set of %d", workers, w, k, len(set))
					}
					add(set, "a pooled set")
				}
				pooled += len(fl.sets)
			}
		}
		if pooled == 0 {
			t.Fatalf("%d workers: no set was recycled", workers)
		}
		for _, set := range s.sets {
			add(set, "a sink set")
		}
		sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("%d workers: %s shares its backing array with %s", workers, spans[i].what, spans[i-1].what)
			}
		}
		t.Logf("%d workers: %d sets pooled over %d segments", workers, pooled, len(wins))
	}
}
