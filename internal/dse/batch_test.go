package dse

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/stacks"
)

// scalarReference evaluates every point through the single-point reference
// code — depgraph.Evaluator.LongestPath and Analysis.Predict — which the
// sweeps' batch evaluators must reproduce bit for bit.
func scalarReference(g *depgraph.Graph, a *core.Analysis, pts []stacks.Latencies) (graph, rpstacks []Result) {
	ev := g.NewEvaluator()
	graph = make([]Result, len(pts))
	rpstacks = make([]Result, len(pts))
	for i := range pts {
		graph[i] = Result{Cycles: float64(ev.LongestPath(&pts[i]))}
		rpstacks[i] = Result{Cycles: a.Predict(&pts[i])}
	}
	return graph, rpstacks
}

// TestBatchedSweepsMatchScalar is the sweep-level batch-vs-scalar
// differential: for both batch-capable engines, every explicit lane width —
// one, odd widths forcing ragged final batches inside chunks, powers of two,
// a width wider than the point list — crossed with serial, parallel and
// tiny-chunk shapes must reproduce the scalar reference code's per-point
// results bit for bit. Run under -race it also proves per-worker batch
// scratches do not race.
func TestBatchedSweepsMatchScalar(t *testing.T) {
	_, g, a, pts := prepareWorkload(t, "429.mcf", 11, 4000, 30)
	grWant, rpWant := scalarReference(g, a, pts)

	shapes := []ExploreOptions{
		{},
		{Parallelism: 4, ChunkSize: 5},
		{Parallelism: 3, ChunkSize: 1},
		{Parallelism: 8},
	}
	for _, k := range []int{1, 2, 3, 7, 8, 64, len(pts)} {
		wantWidth := k
		if wantWidth > len(pts) {
			wantWidth = len(pts) // explicit widths clamp to the point count
		}
		for si, shape := range shapes {
			shape.BatchSize = k
			gr, err := Explore(GraphEngine(g), pts, shape)
			if err != nil {
				t.Fatal(err)
			}
			if gr.Batch != wantWidth {
				t.Fatalf("graph k=%d shape %d: Report.Batch = %d, want %d", k, si, gr.Batch, wantWidth)
			}
			sameResults(t, "graph batched", grWant, gr.Results)
			rp, err := Explore(RpStacksEngine(a), pts, shape)
			if err != nil {
				t.Fatal(err)
			}
			if rp.Batch != wantWidth {
				t.Fatalf("rpstacks k=%d shape %d: Report.Batch = %d, want %d", k, si, rp.Batch, wantWidth)
			}
			sameResults(t, "rpstacks batched", rpWant, rp.Results)
		}
	}

	// The default width on a sweep narrower than it is the point count, and
	// its results still match.
	grDef, _ := Explore(GraphEngine(g), pts, ExploreOptions{})
	if grDef.Batch != len(pts) {
		t.Fatalf("default width on %d points resolved to %d", len(pts), grDef.Batch)
	}
	sameResults(t, "graph default width", grWant, grDef.Results)
}

// TestPickBatchWidth pins the one lane-width rule: BatchSize, or the
// engine default when it is 0; halved while the graph's nodes × lanes
// exceed maxGraphBatchInt64s — explicit widths included; clamped to the
// point count.
func TestPickBatchWidth(t *testing.T) {
	const many = 1000
	for _, c := range []struct {
		name                  string
		requested, def, nodes int
		n, want               int
	}{
		{"default", 0, defaultBatchWidth, 0, many, 32},
		{"search default", 0, searchDefaultBatch, 0, math.MaxInt, 8},
		{"80k-node graph", 0, defaultBatchWidth, 80_000, many, 32},
		{"160k-node graph", 0, defaultBatchWidth, 160_000, many, 16},
		{"480k-node graph", 0, defaultBatchWidth, 480_000, many, 8},
		{"graph beyond the cap at one lane", 0, defaultBatchWidth, maxGraphBatchInt64s + 1, many, 1},
		{"explicit width", 5, defaultBatchWidth, 0, 100, 5},
		{"explicit width beyond point count", 64, defaultBatchWidth, 0, 10, 10},
		{"explicit width must respect the memory cap", 64, defaultBatchWidth, maxGraphBatchInt64s / 2, 10, 2},
		{"explicit width capped on a 160k-node graph", 1024, defaultBatchWidth, 160_000, many, 16},
		{"explicit one lane", 1, defaultBatchWidth, 160_000, many, 1},
		{"empty sweep", 0, defaultBatchWidth, 0, 0, 1},
		{"empty graph sweep", 8, defaultBatchWidth, 160_000, 0, 1},
	} {
		got := batchWidth(c.requested, c.def, c.nodes, c.n)
		if got != c.want {
			t.Errorf("%s: batchWidth(%d, %d, %d, %d) = %d, want %d", c.name, c.requested, c.def, c.nodes, c.n, got, c.want)
		}
		if c.nodes > 0 && got > 1 && c.nodes*got > maxGraphBatchInt64s {
			t.Errorf("%s: %d lanes × %d nodes exceed the cap", c.name, got, c.nodes)
		}
	}
	if w := simEval(nil, nil).width; w != 1 {
		t.Errorf("sim engine width %d, want 1", w)
	}

	// The resolved width of a real sweep is the rule's, and repeated runs
	// report the same one.
	_, g, a, pts := prepareWorkload(t, "416.gamess", 3, 1500, 80)
	for run := 0; run < 3; run++ {
		gr, _ := Explore(GraphEngine(g), pts, ExploreOptions{Parallelism: 2})
		rp, _ := Explore(RpStacksEngine(a), pts, ExploreOptions{})
		if gr.Batch != 32 || rp.Batch != 32 {
			t.Fatalf("run %d: default widths %d/%d, want 32/32", run, gr.Batch, rp.Batch)
		}
	}
}

// TestExplicitWidthRespectsGraphCap is the memory-cap differential: a graph
// sweep or search asked for more lanes than the per-worker distance buffer
// allows runs within the cap and returns exactly the results of the default
// width.
func TestExplicitWidthRespectsGraphCap(t *testing.T) {
	cfg, g, _, _ := prepareWorkload(t, "437.leslie3d", 9, 4000, 1)
	capWidth := maxGraphBatchInt64s / g.NumNodes()
	space := &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4, 5}},
		{Event: stacks.L2D, Values: []float64{6, 9, 12, 15, 18, 21}},
		{Event: stacks.FpAdd, Values: []float64{2, 3, 4, 5, 6, 7, 8}},
	}}
	pts := space.Enumerate(cfg.Lat)
	if len(pts) <= capWidth {
		t.Fatalf("%d points do not exceed the %d-lane cap of a %d-node graph", len(pts), capWidth, g.NumNodes())
	}
	grWant := make([]Result, len(pts))
	ev := g.NewEvaluator()
	for i := range pts {
		grWant[i] = Result{Cycles: float64(ev.LongestPath(&pts[i]))}
	}
	over := 4 * capWidth
	rep, err := Explore(GraphEngine(g), pts, ExploreOptions{BatchSize: over, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch < 1 || rep.Batch > capWidth {
		t.Fatalf("BatchSize %d resolved to %d lanes, cap is %d", over, rep.Batch, capWidth)
	}
	sameResults(t, "graph over the cap", grWant, rep.Results)

	spec := &SearchSpec{Mode: SearchPareto}
	def, err := Search(GraphEngine(g), cfg.Lat, space, spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(GraphEngine(g), cfg.Lat, space, spec, SearchOptions{ExploreOptions: ExploreOptions{BatchSize: over}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch < 1 || res.Batch > capWidth {
		t.Fatalf("search BatchSize %d resolved to %d lanes, cap is %d", over, res.Batch, capWidth)
	}
	sameSearch(t, "graph search over the cap", res, def)
}

// TestBatchSizeFingerprintInvariant pins the "execution detail" contract:
// the sweep fingerprint — the identity the checkpoint store and the shadow
// auditor key on — is computed from the engine and its inputs, never from
// the lane width.
func TestBatchSizeFingerprintInvariant(t *testing.T) {
	_, g, a, pts := prepareWorkload(t, "416.gamess", 7, 3000, 12)
	for _, e := range []Engine{GraphEngine(g), RpStacksEngine(a)} {
		want, err := e.Fingerprint(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 0, 5, len(pts)} {
			rep, err := Explore(e, pts, ExploreOptions{BatchSize: k, NeedFingerprint: true})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rep.Fingerprint, want) {
				t.Fatalf("%s: fingerprint at BatchSize %d differs from Engine.Fingerprint", rep.Method, k)
			}
		}
	}
}

// TestBatchedCheckpointCrashResume is the satellite crash differential: a
// batched checkpointed sweep killed mid-run and resumed at a different lane
// width (and worker count) must stitch together exactly the scalar
// reference code's per-point results, under the engine's sweep
// fingerprint. The resume leg exercises the scattered-index gather path
// that only checkpointed sweeps take.
func TestBatchedCheckpointCrashResume(t *testing.T) {
	_, g, a, pts := prepareWorkload(t, "429.mcf", 5, 2500, 60)
	grWant, rpWant := scalarReference(g, a, pts)
	for _, eng := range []struct {
		name string
		want []Result
		e    Engine
	}{
		{"graph", grWant, GraphEngine(g)},
		{"rpstacks", rpWant, RpStacksEngine(a)},
	} {
		t.Run(eng.name, func(t *testing.T) {
			wantFP, err := eng.e.Fingerprint(pts)
			if err != nil {
				t.Fatal(err)
			}

			const crashChunks = 4
			dir := t.TempDir()
			ck := &Checkpoint{Dir: dir}
			// Crashed leg: serial, batched wider than the chunk, cancelled
			// after 4 chunks of 5 — each chunk evaluates as one ragged batch.
			_, err = Explore(eng.e, pts, ExploreOptions{
				Parallelism: 1,
				ChunkSize:   5,
				BatchSize:   8,
				Context:     &cancelAfter{remaining: crashChunks},
				Checkpoint:  ck,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("crashed run returned %v, want context.Canceled", err)
			}
			if got := len(chunkFiles(t, dir)); got != crashChunks {
				t.Fatalf("crash left %d chunk files, want %d", got, crashChunks)
			}

			// Resumed leg: parallel, a different width — checkpoints written
			// at one width must restore at any other.
			resumed, err := Explore(eng.e, pts, ExploreOptions{Parallelism: 4, ChunkSize: 3, BatchSize: 3, Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if want := crashChunks * 5; resumed.Resumed != want {
				t.Fatalf("resume restored %d points, want %d", resumed.Resumed, want)
			}
			if !bytes.Equal(resumed.Fingerprint, wantFP) {
				t.Fatal("batched checkpointed sweep fingerprints differently than the engine's sweep fingerprint")
			}
			sameResults(t, eng.name+" batched resume vs scalar reference", eng.want, resumed.Results)

			// The default width over the now-complete checkpoint restores all.
			full, err := Explore(eng.e, pts, ExploreOptions{Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			if full.Resumed != len(pts) {
				t.Fatalf("complete checkpoint restored %d of %d points", full.Resumed, len(pts))
			}
			sameResults(t, eng.name+" fully resumed", eng.want, full.Results)
		})
	}
}

// TestSimIgnoresBatchSize checks the scalar-only engine contract: the sim
// engine reports Batch 1 whatever the option says and still returns the same
// measurements.
func TestSimIgnoresBatchSize(t *testing.T) {
	cfg, _, _, pts := prepareWorkload(t, "456.hmmer", 3, 800, 3)
	uops := smallStream(t, "456.hmmer", 3, 800)
	plain, err := Explore(SimEngine(cfg, uops), pts, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Explore(SimEngine(cfg, uops), pts, ExploreOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Batch != 1 || batched.Batch != 1 {
		t.Fatalf("sim reported batch widths %d/%d, want 1/1", plain.Batch, batched.Batch)
	}
	sameResults(t, "sim with BatchSize set", plain.Results, batched.Results)
}
