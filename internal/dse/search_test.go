package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// search_test.go — the exhaustive-equivalence differential layer: on every
// space small enough to materialize, each search mode must return exactly
// the exhaustive sweep's answer (argmin for halving/target, the true Pareto
// set for the walk), bit-identical across scalar, batched, parallel and
// crash-resumed executions. The reference is computed by the straightforward
// full scan (SearchPlan.Exhaustive over an Explore sweep) the search layer
// exists to avoid.

// searchSubstrate simulates a seeded workload once and builds every engine
// input a search can probe through.
func searchSubstrate(t *testing.T, name string, seed int64, n int) (*config.Config, []isa.MicroOp, *depgraph.Graph, *core.Analysis) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	uops := workload.Stream(prof, seed, n)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return cfg, uops, g, a
}

// searchSpaces are the materializable spaces the differential layer scans:
// one axis, two axes, three axes — with deliberately unsorted declared
// values to exercise canonicalization.
func searchSpaces() []*Space {
	return []*Space{
		{Axes: []Axis{{Event: stacks.L1D, Values: []float64{4, 2, 1, 3}}}},
		{Axes: []Axis{
			{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
			{Event: stacks.FpAdd, Values: []float64{6, 2, 4}},
		}},
		{Axes: []Axis{
			{Event: stacks.L1D, Values: []float64{2, 1}},
			{Event: stacks.FpMul, Values: []float64{2, 6}},
			{Event: stacks.MemD, Values: []float64{66, 133, 100}},
		}},
	}
}

// targetSpecs derives target-mode specs whose budgets sit at
// rounding-insensitive spots of the exhaustive cycle distribution: below the
// minimum (infeasible), between the two fastest distinct values, mid-range,
// and above the maximum (everything feasible).
func targetSpecs(cycles []float64, microOps int) []*SearchSpec {
	uniq := append([]float64(nil), cycles...)
	sortFloat64s(uniq)
	w := uniq[:0]
	for i, c := range uniq {
		if i == 0 || c != uniq[i-1] {
			w = append(w, c)
		}
	}
	uniq = w
	budgets := []float64{uniq[0] - 1, uniq[len(uniq)-1] + 1}
	if len(uniq) > 1 {
		budgets = append(budgets, (uniq[0]+uniq[1])/2)
		mid := len(uniq) / 2
		budgets = append(budgets, (uniq[mid-1]+uniq[mid])/2)
	}
	specs := make([]*SearchSpec, 0, len(budgets))
	for _, b := range budgets {
		if cpi := b / float64(microOps); cpi > 0 {
			specs = append(specs, &SearchSpec{Mode: SearchTarget, TargetCPI: cpi})
		}
	}
	return specs
}

func sortFloat64s(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// sameSearch asserts two searches of the same space/spec/engine agree on
// everything deterministic — answer, probe schedule shape, grid — ignoring
// only timings, lane width and the live/resumed probe split.
func sameSearch(t *testing.T, label string, a, b *SearchResult) {
	t.Helper()
	if err := EqualAnswers(a, b); err != nil {
		t.Fatalf("%s: answers differ: %v", label, err)
	}
	if a.Rounds != b.Rounds || a.PeakBoxes != b.PeakBoxes {
		t.Fatalf("%s: probe schedule differs: rounds %d/%d, peak boxes %d/%d",
			label, a.Rounds, b.Rounds, a.PeakBoxes, b.PeakBoxes)
	}
	if a.Probes+a.ResumedProbes != b.Probes+b.ResumedProbes {
		t.Fatalf("%s: total probes differ: %d+%d vs %d+%d",
			label, a.Probes, a.ResumedProbes, b.Probes, b.ResumedProbes)
	}
	if a.Best != nil && a.Best.Lat != b.Best.Lat {
		t.Fatalf("%s: best witness latencies differ", label)
	}
	for i := range a.Frontier {
		if a.Frontier[i].Lat != b.Frontier[i].Lat || a.Frontier[i].Index != b.Frontier[i].Index {
			t.Fatalf("%s: frontier witness %d differs", label, i)
		}
	}
}

// TestSearchExhaustiveEquivalence proves the co-headline for the two model
// engines: every mode, on every materializable test space, returns exactly
// the exhaustive answer over the scalar reference code's cycle counts
// (Evaluator.LongestPath, Analysis.Predict) — at one lane, narrow and wide
// lanes, and in parallel, which must also be bit-identical to each other
// (the -race run of this test covers the parallel shards).
func TestSearchExhaustiveEquivalence(t *testing.T) {
	const microOps = 2500
	cfg, _, g, a := searchSubstrate(t, "437.leslie3d", 11, microOps)
	engines := []struct {
		name   string
		search func(*Space, *SearchSpec, SearchOptions) (*SearchResult, error)
		sweep  func([]stacks.Latencies) []float64
	}{
		{
			name: "graph",
			search: func(sp *Space, spec *SearchSpec, o SearchOptions) (*SearchResult, error) {
				return Search(GraphEngine(g), cfg.Lat, sp, spec, o)
			},
			sweep: func(pts []stacks.Latencies) []float64 {
				ev := g.NewEvaluator()
				out := make([]float64, len(pts))
				for i := range pts {
					out[i] = float64(ev.LongestPath(&pts[i]))
				}
				return out
			},
		},
		{
			name: "rpstacks",
			search: func(sp *Space, spec *SearchSpec, o SearchOptions) (*SearchResult, error) {
				return Search(RpStacksEngine(a), cfg.Lat, sp, spec, o)
			},
			sweep: func(pts []stacks.Latencies) []float64 {
				out := make([]float64, len(pts))
				for i := range pts {
					out[i] = a.Predict(&pts[i])
				}
				return out
			},
		},
	}
	shapes := []SearchOptions{
		{}, // serial rounds at the default width
		{ExploreOptions: ExploreOptions{BatchSize: 1}},                 // one lane
		{ExploreOptions: ExploreOptions{BatchSize: 4}},                 // narrow lanes
		{ExploreOptions: ExploreOptions{Parallelism: 4, ChunkSize: 1}}, // parallel
		{ExploreOptions: ExploreOptions{Parallelism: 3, BatchSize: 8}}, // parallel + batched
	}
	for _, eng := range engines {
		for si, space := range searchSpaces() {
			basePlan, err := NewSearchPlan(space, &SearchSpec{Mode: SearchHalving})
			if err != nil {
				t.Fatal(err)
			}
			pts, err := basePlan.Enumerate(cfg.Lat)
			if err != nil {
				t.Fatal(err)
			}
			cycles := eng.sweep(pts)
			specs := []*SearchSpec{
				{Mode: SearchHalving},
				{Mode: SearchHalving, Cost: []CostWeight{{Event: stacks.L1D, Weight: 2.5}}},
				{Mode: SearchPareto},
			}
			specs = append(specs, targetSpecs(cycles, microOps)...)
			for _, spec := range specs {
				plan, err := NewSearchPlan(space, spec)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := plan.Exhaustive(cycles, microOps)
				if err != nil {
					t.Fatal(err)
				}
				var first *SearchResult
				for sh, opts := range shapes {
					opts.MicroOps = microOps
					res, err := eng.search(space, spec, opts)
					if err != nil {
						t.Fatalf("%s space %d spec %q shape %d: %v", eng.name, si, spec, sh, err)
					}
					if err := EqualAnswers(res, ref); err != nil {
						t.Fatalf("%s space %d spec %q shape %d: search != exhaustive: %v", eng.name, si, spec, sh, err)
					}
					if res.Probes > len(cycles) {
						t.Fatalf("%s space %d spec %q: %d probes exceed the %d-point grid", eng.name, si, spec, res.Probes, len(cycles))
					}
					if first == nil {
						first = res
					} else {
						sameSearch(t, eng.name, res, first)
					}
				}
			}
		}
	}
}

// TestSearchSimEquivalence runs the same differential against the
// re-simulation engine on a tiny stream: every probe is ground truth, so
// the search answer must match the exhaustive simulated sweep exactly.
func TestSearchSimEquivalence(t *testing.T) {
	const microOps = 400
	cfg, uops, _, _ := searchSubstrate(t, "429.mcf", 17, microOps)
	space := &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 3}},
		{Event: stacks.FpAdd, Values: []float64{2, 6}},
		{Event: stacks.MemD, Values: []float64{66, 133, 100}},
	}}
	basePlan, err := NewSearchPlan(space, &SearchSpec{Mode: SearchHalving})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := basePlan.Enumerate(cfg.Lat)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(SimEngine(cfg, uops), pts, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		cycles[i] = r.Cycles
	}
	specs := []*SearchSpec{{Mode: SearchHalving}, {Mode: SearchPareto}}
	specs = append(specs, targetSpecs(cycles, microOps)...)
	for _, spec := range specs {
		plan, err := NewSearchPlan(space, spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := plan.Exhaustive(cycles, microOps)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []SearchOptions{{MicroOps: microOps}, {MicroOps: microOps, ExploreOptions: ExploreOptions{Parallelism: 2, ChunkSize: 1}}} {
			res, err := Search(SimEngine(cfg, uops), cfg.Lat, space, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := EqualAnswers(res, ref); err != nil {
				t.Fatalf("sim spec %q: search != exhaustive: %v", spec, err)
			}
		}
	}
}

// TestSearchCrashResume kills a probe-logged search mid-round via the
// deterministic fault context, then proves the resumed run restores the
// logged rounds (no re-probing) and returns exactly the uninterrupted run's
// answer — and that a third run over the completed log is fully cached.
func TestSearchCrashResume(t *testing.T) {
	const microOps = 2500
	cfg, _, g, _ := searchSubstrate(t, "437.leslie3d", 11, microOps)
	space := searchSpaces()[2]
	basePlan, err := NewSearchPlan(space, &SearchSpec{Mode: SearchHalving})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := basePlan.Enumerate(cfg.Lat)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(GraphEngine(g), pts, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		cycles[i] = r.Cycles
	}
	ts := targetSpecs(cycles, microOps)
	specs := []*SearchSpec{
		{Mode: SearchHalving},
		{Mode: SearchPareto},
		ts[len(ts)-1], // mid-range budget: the search must straddle the iso-surface
	}
	for _, spec := range specs {
		uninterrupted, err := Search(GraphEngine(g), cfg.Lat, space, spec, SearchOptions{MicroOps: microOps})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		crashOpts := SearchOptions{MicroOps: microOps, ExploreOptions: ExploreOptions{
			Checkpoint: &Checkpoint{Dir: dir},
			Context:    &cancelAfter{remaining: 4},
			ChunkSize:  1,
		}}
		if _, err := Search(GraphEngine(g), cfg.Lat, space, spec, crashOpts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted search returned %v, want context.Canceled", spec, err)
		}
		if len(probeFiles(t, dir)) == 0 {
			t.Fatalf("%s: crashed search left no probe-log chunks", spec)
		}
		resumed, err := Search(GraphEngine(g), cfg.Lat, space, spec, SearchOptions{MicroOps: microOps, ExploreOptions: ExploreOptions{
			Checkpoint: &Checkpoint{Dir: dir},
			ChunkSize:  1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.ResumedProbes == 0 {
			t.Fatalf("%s: resumed search restored nothing from the probe log", spec)
		}
		sameSearch(t, spec.String(), resumed, uninterrupted)
		if resumed.Probes+resumed.ResumedProbes != uninterrupted.Probes {
			t.Fatalf("%s: resumed %d+%d probes != uninterrupted %d", spec, resumed.Probes, resumed.ResumedProbes, uninterrupted.Probes)
		}
		third, err := Search(GraphEngine(g), cfg.Lat, space, spec, SearchOptions{MicroOps: microOps, ExploreOptions: ExploreOptions{
			Checkpoint: &Checkpoint{Dir: dir},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if third.Probes != 0 || third.ResumedProbes != uninterrupted.Probes {
			t.Fatalf("%s: completed log replay probed %d live, restored %d (want 0, %d)",
				spec, third.Probes, third.ResumedProbes, uninterrupted.Probes)
		}
		sameSearch(t, spec.String()+" full replay", third, uninterrupted)
	}
}

// probeFiles lists the published probe-log chunks in dir.
func probeFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), probeLog.prefix) {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	return out
}

// TestSearchProbeLogCorruptionAndForeign pins the probe log's two failure
// contracts: a corrupt chunk is silently re-probed; a healthy log written by
// a different search (changed axis values) is a hard error, never mixed in.
func TestSearchProbeLogCorruptionAndForeign(t *testing.T) {
	const microOps = 2500
	cfg, _, g, _ := searchSubstrate(t, "437.leslie3d", 11, microOps)
	space := searchSpaces()[1]
	spec := &SearchSpec{Mode: SearchHalving}
	dir := t.TempDir()
	opts := SearchOptions{MicroOps: microOps, ExploreOptions: ExploreOptions{Checkpoint: &Checkpoint{Dir: dir}}}
	clean, err := Search(GraphEngine(g), cfg.Lat, space, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := probeFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no probe-log chunks written")
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered, err := Search(GraphEngine(g), cfg.Lat, space, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Probes == 0 {
		t.Fatal("corrupt chunk was not re-probed")
	}
	sameSearch(t, "corrupt chunk recovery", recovered, clean)

	foreign := &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4}},
		{Event: stacks.FpAdd, Values: []float64{6, 2, 5}}, // 5 instead of 4
	}}
	if _, err := Search(GraphEngine(g), cfg.Lat, foreign, spec, opts); err == nil || !strings.Contains(err.Error(), "different search") {
		t.Fatalf("foreign probe log accepted: %v", err)
	}
}

// TestSearchProbeLogV1ChunksAreReprobed: a probe log in the version-1 chunk
// layout fails the frame check, so an upgraded search deletes it and
// re-probes from scratch, returning the answer of a clean run.
func TestSearchProbeLogV1ChunksAreReprobed(t *testing.T) {
	const microOps = 2500
	cfg, _, g, _ := searchSubstrate(t, "437.leslie3d", 11, microOps)
	space := searchSpaces()[1]
	spec := &SearchSpec{Mode: SearchHalving}
	dir := t.TempDir()
	opts := SearchOptions{MicroOps: microOps, ExploreOptions: ExploreOptions{Checkpoint: &Checkpoint{Dir: dir}}}
	clean, err := Search(GraphEngine(g), cfg.Lat, space, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	files := probeFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no probe-log chunks written")
	}
	downgradeToV1(t, files)
	upgraded, err := Search(GraphEngine(g), cfg.Lat, space, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if upgraded.ResumedProbes != 0 || upgraded.Probes != clean.Probes {
		t.Fatalf("upgraded search restored %d and probed %d, want 0 and %d",
			upgraded.ResumedProbes, upgraded.Probes, clean.Probes)
	}
	sameSearch(t, "v1 probe log upgrade", upgraded, clean)
}

// TestSearchProbeLogRemoveOnSuccess checks a completed search cleans its
// probe log when asked, and that a crashed one keeps it.
func TestSearchProbeLogRemoveOnSuccess(t *testing.T) {
	const microOps = 2500
	cfg, _, g, _ := searchSubstrate(t, "437.leslie3d", 11, microOps)
	space := searchSpaces()[0]
	dir := filepath.Join(t.TempDir(), "probes")
	_, err := Search(GraphEngine(g), cfg.Lat, space, &SearchSpec{Mode: SearchHalving}, SearchOptions{
		MicroOps:       microOps,
		ExploreOptions: ExploreOptions{Checkpoint: &Checkpoint{Dir: dir, RemoveOnSuccess: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("probe-log dir survived RemoveOnSuccess: %v", err)
	}
}

// TestSearchMaxRounds checks the round cap stops the search early and marks
// it unconverged rather than pretending exactness.
func TestSearchMaxRounds(t *testing.T) {
	const microOps = 2500
	cfg, _, g, _ := searchSubstrate(t, "437.leslie3d", 11, microOps)
	space := searchSpaces()[2]
	full, err := Search(GraphEngine(g), cfg.Lat, space, &SearchSpec{Mode: SearchPareto}, SearchOptions{MicroOps: microOps})
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 2 {
		t.Skipf("space converges in %d round(s); cap has nothing to cut", full.Rounds)
	}
	capped, err := Search(GraphEngine(g), cfg.Lat, space, &SearchSpec{Mode: SearchPareto, MaxRounds: 1}, SearchOptions{MicroOps: microOps})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Converged {
		t.Fatal("round-capped search claims convergence")
	}
	if capped.Rounds != 1 {
		t.Fatalf("capped search ran %d rounds, want 1", capped.Rounds)
	}
}
