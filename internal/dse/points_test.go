package dse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/stacks"
)

// randomSpace draws a valid space of one to five distinct axes, each of one
// to nine values (one-value axes included), with at most maxPoints points.
func randomSpace(rng *rand.Rand, maxPoints int) *Space {
	var knobs []stacks.Event
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if e.Optimizable() {
			knobs = append(knobs, e)
		}
	}
	for {
		sp := &Space{}
		for _, k := range rng.Perm(len(knobs))[:1+rng.Intn(5)] {
			vals := make([]float64, 1+rng.Intn(9))
			for v := range vals {
				vals[v] = float64(1 + rng.Intn(60))
			}
			sp.Axes = append(sp.Axes, Axis{Event: knobs[k], Values: vals})
		}
		if sp.Size() <= maxPoints {
			return sp
		}
	}
}

// sameSweep asserts a space sweep and a list sweep over the space's
// enumeration agree bit for bit: cycles, every Point(i), and Fingerprint.
func sameSweep(t *testing.T, label string, points []stacks.Latencies, list, space *Report) {
	t.Helper()
	sameResults(t, label, list.Results, space.Results)
	for i := range points {
		if list.Point(i) != points[i] || space.Point(i) != points[i] {
			t.Fatalf("%s: Point(%d) differs from the enumeration", label, i)
		}
	}
	if !bytes.Equal(list.Fingerprint, space.Fingerprint) {
		t.Fatalf("%s: fingerprint %x over the space, %x over the list", label, space.Fingerprint, list.Fingerprint)
	}
}

// TestExploreSpaceMatchesExplore is the point-source property: on random
// spaces, ExploreSpace returns exactly what Explore returns over the
// space's enumeration, for both batch engines at lane widths 1, 8 and 32,
// one to three workers, and odd explicit chunk sizes, so chunks start off
// lane boundaries and each seeds its odometer mid-walk.
func TestExploreSpaceMatchesExplore(t *testing.T) {
	cfg, g, a, _ := prepareWorkload(t, "429.mcf", 5, 300, 1)
	rng := rand.New(rand.NewSource(26))
	engines := []struct {
		name      string
		e         Engine
		maxPoints int
	}{
		{"rpstacks", RpStacksEngine(a), 3000},
		{"graph", GraphEngine(g), 400},
	}
	for _, eng := range engines {
		for trial := 0; trial < 6; trial++ {
			sp := randomSpace(rng, eng.maxPoints)
			points := sp.Enumerate(cfg.Lat)
			for _, width := range []int{1, 8, 32} {
				for workers := 1; workers <= 3; workers++ {
					opts := ExploreOptions{
						Parallelism:     workers,
						ChunkSize:       2*rng.Intn(20) + 1,
						BatchSize:       width,
						Context:         context.Background(), // chunked even on one worker
						NeedFingerprint: true,
					}
					label := fmt.Sprintf("%s trial %d (%d points) w%d p%d c%d",
						eng.name, trial, len(points), width, workers, opts.ChunkSize)
					list, err := Explore(eng.e, points, opts)
					if err != nil {
						t.Fatal(err)
					}
					space, err := ExploreSpace(eng.e, sp, cfg.Lat, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameSweep(t, label, points, list, space)
				}
			}
		}
	}
}

// TestExploreSpaceCrossResume: the two entry points are one sweep to the
// checkpoint layer. A sweep crashed under either resumes under the other,
// restoring the crashed run's chunks and stitching the uninterrupted result.
func TestExploreSpaceCrossResume(t *testing.T) {
	cfg, _, a, _ := prepareWorkload(t, "429.mcf", 5, 300, 1)
	e := RpStacksEngine(a)
	sp := &Space{Axes: []Axis{
		{Event: stacks.L1D, Values: []float64{1, 2, 3, 4, 5}},
		{Event: stacks.FpAdd, Values: []float64{2}},
		{Event: stacks.FpMul, Values: []float64{2, 4, 6, 8, 10, 12, 14}},
	}}
	points := sp.Enumerate(cfg.Lat)
	want, err := Explore(e, points, ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	explore := map[string]func(ExploreOptions) (*Report, error){
		"list":  func(o ExploreOptions) (*Report, error) { return Explore(e, points, o) },
		"space": func(o ExploreOptions) (*Report, error) { return ExploreSpace(e, sp, cfg.Lat, o) },
	}
	for _, pair := range [][2]string{{"list", "space"}, {"space", "list"}} {
		const crashChunks, chunk = 3, 5
		ck := &Checkpoint{Dir: t.TempDir()}
		_, err := explore[pair[0]](ExploreOptions{ChunkSize: chunk, BatchSize: 8,
			Context: &cancelAfter{remaining: crashChunks}, Checkpoint: ck})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s crash returned %v, want context.Canceled", pair[0], err)
		}
		got, err := explore[pair[1]](ExploreOptions{Parallelism: 2, ChunkSize: 3, Checkpoint: ck})
		if err != nil {
			t.Fatalf("%s resuming a %s checkpoint: %v", pair[1], pair[0], err)
		}
		if got.Resumed != crashChunks*chunk {
			t.Fatalf("%s resumed %d points of a %s checkpoint, want %d", pair[1], got.Resumed, pair[0], crashChunks*chunk)
		}
		sameSweep(t, pair[0]+" crash, "+pair[1]+" resume", points, want, got)
	}
}

// TestExploreSpaceRejectsInvalid: a space sweep needs a space that passes
// Validate and whose size fits an int (an overflowed size, which Enumerate
// panics on, is an error here).
func TestExploreSpaceRejectsInvalid(t *testing.T) {
	_, _, a, _ := prepareWorkload(t, "429.mcf", 5, 300, 1)
	e := RpStacksEngine(a)
	for _, tc := range []struct {
		name string
		sp   *Space
		want string
	}{
		{"empty", &Space{}, "empty design space"},
		{"duplicate", &Space{Axes: []Axis{{Event: stacks.L1D, Values: []float64{1}}, {Event: stacks.L1D, Values: []float64{2}}}}, "duplicate axis"},
		{"overflow", wrapSpace(8, 256), "too large"},
	} {
		_, err := ExploreSpace(e, tc.sp, stacks.Latencies{}, ExploreOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s space: ExploreSpace returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
