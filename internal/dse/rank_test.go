package dse

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/stacks"
)

// rankRef is Rank's reference: a stable sort of every point by cycles, then
// the budget filter, then truncation.
func rankRef(results []Result, top int, budget float64) ([]int, int) {
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return results[idx[a]].Cycles < results[idx[b]].Cycles })
	keep := []int{}
	for _, i := range idx {
		if results[i].Cycles <= budget {
			keep = append(keep, i)
		}
	}
	meeting := len(keep)
	if len(keep) > top {
		keep = keep[:top]
	}
	return keep, meeting
}

// checkRank compares Rank with rankRef on one input and checks that Rank
// left the results untouched.
func checkRank(t *testing.T, results []Result, top int, budget float64) {
	t.Helper()
	before := make([]Result, len(results))
	copy(before, results)
	got, gotMeet := Rank(results, top, budget)
	want, wantMeet := rankRef(results, top, budget)
	if gotMeet != wantMeet {
		t.Fatalf("n=%d top=%d budget=%g: meeting %d, want %d", len(results), top, budget, gotMeet, wantMeet)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("n=%d top=%d budget=%g: best %v, want %v", len(results), top, budget, got, want)
	}
	if !reflect.DeepEqual(results, before) {
		t.Fatalf("n=%d top=%d budget=%g: Rank modified its input", len(results), top, budget)
	}
}

// tiedResults draws n finite cycle counts from `distinct` values, so most
// points tie with many others.
func tiedResults(rng *rand.Rand, n, distinct int) []Result {
	rs := make([]Result, n)
	for i := range rs {
		rs[i].Cycles = 100 + 7*float64(rng.Intn(distinct))
	}
	return rs
}

// TestRank checks Rank against the stable-sort reference over heavily tied
// inputs: top of 1, the point count, more than it and serve's top limit
// (1000), under budgets that keep no point, some and all.
func TestRank(t *testing.T) {
	rs := []Result{{Cycles: 10}, {Cycles: 20}, {Cycles: 30}}
	if best, meeting := Rank(rs, 10, 20); meeting != 2 || !reflect.DeepEqual(best, []int{0, 1}) {
		t.Fatalf("budget 20: best %v meeting %d, want [0 1] and 2", best, meeting)
	}
	if best, meeting := Rank(rs, 10, 5); meeting != 0 || len(best) != 0 {
		t.Fatalf("budget 5: best %v meeting %d, want none", best, meeting)
	}
	if best, meeting := Rank(nil, 10, math.Inf(1)); meeting != 0 || len(best) != 0 {
		t.Fatalf("no results: best %v meeting %d", best, meeting)
	}

	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 17, 1000, 2500} {
		for _, distinct := range []int{1, 3, 50, n} {
			results := tiedResults(rng, n, distinct)
			mid := 100 + 7*float64(distinct/2)
			for _, top := range []int{1, n, n + 5, 1000, 1 + rng.Intn(n)} {
				for _, budget := range []float64{99, mid, mid + 3.5, math.Inf(1)} {
					checkRank(t, results, top, budget)
				}
			}
		}
	}
}

// TestRankNaNNeverMeets pins the one non-finite case the reference leaves
// open: a NaN compares false against every budget, +Inf included, so it is
// neither counted nor returned.
func TestRankNaNNeverMeets(t *testing.T) {
	rs := []Result{{Cycles: math.NaN()}, {Cycles: 5}, {Cycles: math.Inf(1)}}
	best, meeting := Rank(rs, 3, math.Inf(1))
	if meeting != 2 || !reflect.DeepEqual(best, []int{1, 2}) {
		t.Fatalf("best %v meeting %d, want [1 2] and 2", best, meeting)
	}
}

// FuzzRank drives Rank against the reference with fuzzer-chosen cycles
// (eight values, so ties dominate), top counts and budgets.
func FuzzRank(f *testing.F) {
	f.Add([]byte{}, uint16(3), uint8(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(3), uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint16(1000), uint8(255))
	f.Add([]byte("heavy ties at every budget"), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, cycles []byte, top uint16, budget uint8) {
		results := make([]Result, len(cycles))
		for i, b := range cycles {
			results[i].Cycles = float64(b % 8)
		}
		// Budgets below every value, between the values and above them,
		// plus no budget at all.
		b := float64(budget%20)/2 - 1
		if budget >= 240 {
			b = math.Inf(1)
		}
		checkRank(t, results, int(top)%(len(results)+1002), b)
	})
}

// TestEnumerateMatchesPoint checks the odometer walk against Point's
// mixed-radix decode on random spaces of one to six distinct axes,
// single-value axes included.
func TestEnumerateMatchesPoint(t *testing.T) {
	var knobs []stacks.Event
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if e.Optimizable() {
			knobs = append(knobs, e)
		}
	}
	base := config.Baseline().Lat
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sp := &Space{}
		for _, k := range rng.Perm(len(knobs))[:1+rng.Intn(min(6, len(knobs)))] {
			vals := make([]float64, 1+rng.Intn(4))
			for v := range vals {
				vals[v] = float64(1 + rng.Intn(40))
			}
			sp.Axes = append(sp.Axes, Axis{Event: knobs[k], Values: vals})
		}
		points := sp.Enumerate(base)
		if len(points) != sp.Size() {
			t.Fatalf("trial %d: %d points, size %d", trial, len(points), sp.Size())
		}
		for i, p := range points {
			if want := sp.Point(base, i); p != want {
				t.Fatalf("trial %d: point %d = %v, want %v", trial, i, p, want)
			}
		}
	}
}
