package dse

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stacks"
)

// search_quick_test.go — randomized structural properties of the guided
// searches, checked over synthetic monotone cycle surfaces probed through
// SearchOptions.RoundEval (no engine in the loop, so testing/quick can run
// hundreds of spaces): probes never leave the declared axis ranges, probe
// counts obey the O(rounds · surviving boxes) bound instead of the grid
// size, Pareto archives are mutually non-dominated with valid witnesses,
// and every mode still equals the exhaustive answer.

// quickEvents is the axis pool random spaces draw from.
var quickEvents = []stacks.Event{stacks.L1D, stacks.L2D, stacks.MemD, stacks.FpAdd, stacks.FpMul, stacks.IntAlu}

// randomSurface builds a random materializable space (1–3 axes, 1–5 distinct
// values each, declared in shuffled order), a strictly monotone synthetic
// cycle surface over it, and a thread-safe RoundEval that records every
// probed latency assignment.
func randomSurface(rng *rand.Rand) (space *Space, base stacks.Latencies, eval func(context.Context, []stacks.Latencies) ([]float64, error), probed *[]stacks.Latencies, mu *sync.Mutex) {
	events := append([]stacks.Event(nil), quickEvents...)
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	nAxes := 1 + rng.Intn(3)
	space = &Space{}
	for a := 0; a < nAxes; a++ {
		k := 1 + rng.Intn(5)
		vals := make([]float64, k)
		v := rng.Intn(4)
		for i := 0; i < k; i++ {
			vals[i] = float64(v)
			v += 1 + rng.Intn(3)
		}
		rng.Shuffle(k, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		space.Axes = append(space.Axes, Axis{Event: events[a], Values: vals})
	}
	for e := range base {
		base[e] = float64(rng.Intn(4))
	}
	// cycles = bias + Σ_e coeff_e · lat_e with coeff ≥ 0 (and > 0 on axes
	// half the time, so plateaus appear) is monotone non-decreasing in every
	// event — the same structural property the real engines have.
	var coeff stacks.Latencies
	for e := range coeff {
		if rng.Intn(2) == 0 {
			coeff[e] = float64(1 + rng.Intn(5))
		}
	}
	bias := float64(rng.Intn(100))
	probed = &[]stacks.Latencies{}
	mu = &sync.Mutex{}
	eval = func(_ context.Context, pts []stacks.Latencies) ([]float64, error) {
		mu.Lock()
		*probed = append(*probed, pts...)
		mu.Unlock()
		out := make([]float64, len(pts))
		for i, l := range pts {
			c := bias
			for e := range l {
				c += coeff[e] * l[e]
			}
			out[i] = c
		}
		return out, nil
	}
	return space, base, eval, probed, mu
}

// axisSets indexes each axis's allowed values for membership checks.
func axisSets(space *Space) map[stacks.Event]map[float64]bool {
	sets := make(map[stacks.Event]map[float64]bool, len(space.Axes))
	for _, ax := range space.Axes {
		m := make(map[float64]bool, len(ax.Values))
		for _, v := range ax.Values {
			m[v] = true
		}
		sets[ax.Event] = m
	}
	return sets
}

// TestSearchQuickProperties drives all three modes over random synthetic
// surfaces and checks, per run: (1) every probe stays inside the declared
// axis values and leaves off-axis events at the baseline; (2) the probe
// count is bounded by 2 · rounds · peak surviving boxes — the lazy-search
// complexity contract — and by the grid size; (3) a Pareto archive is
// mutually non-dominated and each witness's (cycles, cost) is genuine;
// (4) the answer equals the exhaustive scan's.
func TestSearchQuickProperties(t *testing.T) {
	check := func(seed int64, modePick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		space, base, eval, probed, mu := randomSurface(rng)
		plan, err := NewSearchPlan(space, &SearchSpec{Mode: SearchHalving})
		if err != nil {
			t.Fatal(err)
		}
		pts, err := plan.Enumerate(base)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := eval(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		*probed = (*probed)[:0] // the reference scan above is not a probe
		mu.Unlock()
		const microOps = 1000
		var spec *SearchSpec
		switch modePick % 3 {
		case 0:
			spec = &SearchSpec{Mode: SearchHalving}
		case 1:
			spec = &SearchSpec{Mode: SearchPareto, Cost: []CostWeight{{Event: space.Axes[0].Event, Weight: 1 + rng.Float64()}}}
		default:
			budget := cycles[rng.Intn(len(cycles))] + 0.5
			spec = &SearchSpec{Mode: SearchTarget, TargetCPI: budget / microOps}
		}
		opts := SearchOptions{MicroOps: microOps, RoundEval: eval}
		if rng.Intn(2) == 0 {
			opts.Parallelism = 2
			opts.ChunkSize = 1
		}
		res, err := Search(Engine{}, base, space, spec, opts)
		if err != nil {
			t.Fatal(err)
		}

		sets := axisSets(space)
		mu.Lock()
		for _, l := range *probed {
			for e := stacks.Event(0); e < stacks.NumEvents; e++ {
				if set, onAxis := sets[e]; onAxis {
					if !set[l[e]] {
						t.Fatalf("seed %d: probe assigned %s=%g, outside the declared axis values", seed, e, l[e])
					}
				} else if l[e] != base[e] {
					t.Fatalf("seed %d: probe moved off-axis event %s from %g to %g", seed, e, base[e], l[e])
				}
			}
		}
		nProbed := len(*probed)
		mu.Unlock()
		if nProbed != res.Probes {
			t.Fatalf("seed %d: RoundEval saw %d probes, result reports %d", seed, nProbed, res.Probes)
		}
		if bound := 2 * res.Rounds * res.PeakBoxes; res.Probes > bound {
			t.Fatalf("seed %d: %d probes exceed the 2·rounds·boxes bound %d", seed, res.Probes, bound)
		}
		if uint64(res.Probes) > res.GridPoints {
			t.Fatalf("seed %d: %d probes exceed the %d-point grid", seed, res.Probes, res.GridPoints)
		}

		if spec.Mode == SearchPareto {
			costPlan, err := NewSearchPlan(space, spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Frontier {
				probe, err := eval(context.Background(), []stacks.Latencies{p.Lat})
				if err != nil {
					t.Fatal(err)
				}
				if probe[0] != p.Cycles || costPlan.Cost(p.Lat) != p.Cost {
					t.Fatalf("seed %d: frontier witness %d misreports (cycles, cost)", seed, i)
				}
				for j, q := range res.Frontier {
					if i != j && q.Cycles <= p.Cycles && q.Cost <= p.Cost {
						t.Fatalf("seed %d: frontier point %d dominated by %d", seed, i, j)
					}
				}
			}
		}

		refPlan, err := NewSearchPlan(space, spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refPlan.Exhaustive(cycles, microOps)
		if err != nil {
			t.Fatal(err)
		}
		if err := EqualAnswers(res, ref); err != nil {
			t.Fatalf("seed %d spec %q: search != exhaustive: %v", seed, spec, err)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSublinearProbes pins the whole point of lazy search on a grid
// far too large to enjoy materializing: on a 6-axis × 8-value space
// (262 144 points) with a strictly monotone surface, halving converges in
// logarithmically many rounds with a probe count hundreds of times smaller
// than the grid, and target mode's iso-surface walk stays well under half
// the grid.
func TestSearchSublinearProbes(t *testing.T) {
	space := &Space{}
	events := []stacks.Event{stacks.L1D, stacks.L2D, stacks.MemD, stacks.FpAdd, stacks.FpMul, stacks.IntAlu}
	for _, e := range events {
		vals := make([]float64, 8)
		for i := range vals {
			vals[i] = float64(1 + 2*i)
		}
		space.Axes = append(space.Axes, Axis{Event: e, Values: vals})
	}
	var base stacks.Latencies
	eval := func(_ context.Context, pts []stacks.Latencies) ([]float64, error) {
		out := make([]float64, len(pts))
		for i, l := range pts {
			c := 50.0
			for k, e := range events {
				c += float64(k+1) * l[e]
			}
			out[i] = c
		}
		return out, nil
	}
	const microOps = 1000
	halve, err := Search(Engine{}, base, space, &SearchSpec{Mode: SearchHalving}, SearchOptions{MicroOps: microOps, RoundEval: eval})
	if err != nil {
		t.Fatal(err)
	}
	if !halve.Converged {
		t.Fatal("halving did not converge")
	}
	if halve.GridPoints != 262144 {
		t.Fatalf("grid is %d points, want 262144", halve.GridPoints)
	}
	if halve.Probes > int(halve.GridPoints/100) {
		t.Fatalf("halving probed %d of %d points; lazy search is supposed to be sublinear", halve.Probes, halve.GridPoints)
	}
	// A mid-range cycle budget forces the expensive shape: boxes straddling
	// the feasibility iso-surface keep splitting until the cost bound prunes
	// them against the incumbent.
	minC, maxC := 50.0, 50.0
	for k := range events {
		minC += float64(k+1) * 1
		maxC += float64(k+1) * 15
	}
	budget := math.Floor((minC+maxC)/2) + 0.5
	target, err := Search(Engine{}, base, space, &SearchSpec{Mode: SearchTarget, TargetCPI: budget / microOps}, SearchOptions{MicroOps: microOps, RoundEval: eval})
	if err != nil {
		t.Fatal(err)
	}
	if !target.Converged || !target.Feasible || target.Best == nil {
		t.Fatal("target search failed to converge on a feasible point")
	}
	if target.Best.Cycles > budget {
		t.Fatalf("target returned %g cycles over the %g budget", target.Best.Cycles, budget)
	}
	if target.Probes > int(target.GridPoints/2) {
		t.Fatalf("target probed %d of %d points", target.Probes, target.GridPoints)
	}
}
