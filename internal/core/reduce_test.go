package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/depgraph"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// caseSource yields small non-negative integers: from a seeded PRNG in the
// property test, from the fuzzer's bytes in FuzzReduceSet.
type caseSource interface{ intn(n int) int }

type rngSource struct{ *rand.Rand }

func (s rngSource) intn(n int) int { return s.Intn(n) }

type byteSource struct{ data []byte }

func (s *byteSource) intn(n int) int {
	if len(s.data) == 0 {
		return 0
	}
	v := int(s.data[0]) % n
	s.data = s.data[1:]
	return v
}

// reduceCase is one node's reduction input, shaped the way generate builds
// it: one block per in-edge, each block a predecessor set (free of dominated
// stacks and duplicates) plus one integer edge weight.
type reduceCase struct {
	blocks [][]stacks.Stack
	base   stacks.Latencies
	opts   Options
}

// palette lists events with pairwise-equal baseline latencies (FpAdd/FpMul,
// L2I/L2D, ITLB/DTLB, MemI/MemD) so that baseline totals tie often, plus the
// events whose latency may be zero.
var palette = []stacks.Event{
	stacks.Base, stacks.FpAdd, stacks.FpMul, stacks.L2I, stacks.L2D,
	stacks.ITLB, stacks.DTLB, stacks.Store, stacks.MemI, stacks.MemD,
}

func genReduceCase(src caseSource) reduceCase {
	c := reduceCase{base: config.Baseline().Lat, opts: DefaultOptions()}
	for _, e := range []stacks.Event{stacks.ITLB, stacks.DTLB, stacks.Store} {
		if src.intn(3) == 0 {
			c.base[e] = 0
		}
	}
	c.opts.PreserveUnique = src.intn(2) == 0
	c.opts.DisableMerge = src.intn(5) == 0
	c.opts.MaxStacks = []int{0, 1, 2, 3, 5, 8, 64}[src.intn(7)]
	c.opts.CosineThreshold = []float64{0, 0.5, 0.7, 0.9, 0.99, 1}[src.intn(6)]

	evs := palette[:2+src.intn(len(palette)-1)]
	maxCount := 2 + src.intn(3)
	preds := make([][]stacks.Stack, 1+src.intn(3))
	for p := range preds {
		set := make([]stacks.Stack, 1+src.intn(14))
		for k := range set {
			for _, e := range evs {
				set[k].Counts[e] = float64(src.intn(maxCount))
			}
			// A rare event held by few stacks exercises uniqueness.
			if src.intn(6) == 0 {
				set[k].Counts[[]stacks.Event{stacks.IntDiv, stacks.FpDiv}[src.intn(2)]] = float64(1 + src.intn(2))
			}
		}
		preds[p] = refDominanceFilter(set)
	}
	var w stacks.Stack
	for b := 1 + src.intn(4); b > 0; b-- {
		// Reusing the previous weight over the same predecessor gives
		// duplicates across blocks.
		if src.intn(3) != 0 {
			w = stacks.Stack{}
			for k := src.intn(4); k > 0; k-- {
				w.Counts[evs[src.intn(len(evs))]] += float64(1 + src.intn(3))
			}
		}
		pred := preds[src.intn(len(preds))]
		block := make([]stacks.Stack, len(pred))
		for k := range pred {
			block[k] = pred[k]
			block[k].AddStack(&w)
		}
		c.blocks = append(c.blocks, block)
	}
	return c
}

// reduceWith runs the kernel over the case's blocks on a reducer whose
// scratch may hold a previous case's state.
func reduceWith(r *reducer, c *reduceCase) []stacks.Stack {
	r.base, r.opts = &c.base, &c.opts
	r.cand, r.ends = r.cand[:0], r.ends[:0]
	for _, b := range c.blocks {
		r.cand = append(r.cand, b...)
		r.ends = append(r.ends, len(r.cand))
	}
	return r.reduce()
}

// checkAgainstOracle fails unless the kernel's result equals the oracle's
// stack for stack, in the same order.
func checkAgainstOracle(t *testing.T, r *reducer, c *reduceCase) {
	t.Helper()
	var all []stacks.Stack
	for _, b := range c.blocks {
		all = append(all, b...)
	}
	want := refReduceSet(all, &c.base, &c.opts)
	got := reduceWith(r, c)
	if len(got) != len(want) {
		t.Fatalf("opts %+v base %v: kernel kept %d stacks, oracle %d", c.opts, c.base, len(got), len(want))
	}
	for i := range got {
		if got[i].Counts != want[i].Counts {
			t.Fatalf("opts %+v: stack %d is %v, oracle %v", c.opts, i, got[i].Counts, want[i].Counts)
		}
	}
}

// TestReduceMatchesOracle is the differential property test of the
// reduction kernel against the historical all-pairs pipeline. It also
// checks that the generator reaches every case the kernel's exactness
// arguments depend on.
func TestReduceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var r reducer
	var dups, ties, zeroLat, unique, capped int
	for i := 0; i < 4000; i++ {
		c := genReduceCase(rngSource{rng})
		checkAgainstOracle(t, &r, &c)

		var all []stacks.Stack
		for b := range c.blocks {
			for _, s := range c.blocks[b] {
				for b2 := b + 1; b2 < len(c.blocks); b2++ {
					for _, s2 := range c.blocks[b2] {
						if s == s2 {
							dups++
						}
					}
				}
			}
			all = append(all, c.blocks[b]...)
		}
		surv := refDominanceFilter(all)
		for a := range surv {
			for b := a + 1; b < len(surv); b++ {
				if surv[a].Total(&c.base) == surv[b].Total(&c.base) {
					ties++
				}
			}
			for _, e := range []stacks.Event{stacks.ITLB, stacks.DTLB, stacks.Store} {
				if c.base[e] == 0 && surv[a].Counts[e] != 0 {
					zeroLat++
				}
			}
		}
		if c.opts.PreserveUnique {
			for _, u := range refUniqueFlags(surv, true) {
				if u {
					unique++
				}
			}
		}
		if !c.opts.DisableMerge && c.opts.MaxStacks > 0 {
			uncapped := c.opts
			uncapped.MaxStacks = 0
			if len(refReduceSet(surv, &c.base, &uncapped)) > c.opts.MaxStacks {
				capped++
			}
		}
	}
	t.Logf("coverage: %d cross-block duplicates, %d total ties, %d zero-latency counts, %d unique stacks, %d capped sets",
		dups, ties, zeroLat, unique, capped)
	if dups == 0 || ties == 0 || zeroLat == 0 || unique == 0 || capped == 0 {
		t.Fatal("generator missed a case the kernel must be checked on")
	}
}

// TestReduceIsIdempotent: a reduced set, reduced again as one block, comes
// back unchanged, stack for stack and in order. This is why a node whose one
// in-edge weighs nothing may share its predecessor's set. Sets of more than
// 12 stacks go through pdqsort's pivot choice and partialInsertionSort
// rather than plain insertion sort, so the test must reach some with
// merging on.
func TestReduceIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var r reducer
	large, huge := 0, 0
	for i := 0; i < 5000; i++ {
		c := genReduceCase(rngSource{rng})
		if i%5 == 0 {
			c = genWideCase(rng)
		}
		set := reduceWith(&r, &c)
		again := reduceCase{blocks: [][]stacks.Stack{set}, base: c.base, opts: c.opts}
		got := reduceWith(&r, &again)
		if len(got) != len(set) {
			t.Fatalf("opts %+v: re-reduction kept %d of %d stacks", c.opts, len(got), len(set))
		}
		for k := range got {
			if got[k] != set[k] {
				t.Fatalf("opts %+v: re-reduction changed stack %d", c.opts, k)
			}
		}
		if !c.opts.DisableMerge && len(set) > 12 {
			large++
			if len(set) >= 50 {
				huge++
			}
		}
	}
	t.Logf("%d merged sets of more than 12 stacks, %d of them of 50 or more", large, huge)
	if large == 0 || huge == 0 {
		t.Fatal("generator reached no merged set of more than 12 (or of 50 or more) stacks")
	}
}

// genWideCase is one block of up to 120 stacks over every palette event
// that merges only near-parallel stacks (threshold 0.99 or 1), so reduced
// sets are large: pdqsort picks its pivot by median of three from 13
// elements and by Tukey's ninther from 50.
func genWideCase(rng *rand.Rand) reduceCase {
	c := reduceCase{base: config.Baseline().Lat, opts: DefaultOptions()}
	c.opts.PreserveUnique = rng.Intn(2) == 0
	c.opts.MaxStacks = []int{0, 64}[rng.Intn(2)]
	c.opts.CosineThreshold = []float64{0.99, 1}[rng.Intn(2)]
	set := make([]stacks.Stack, 20+rng.Intn(100))
	for k := range set {
		for _, e := range palette {
			set[k].Counts[e] = float64(rng.Intn(6))
		}
	}
	c.blocks = [][]stacks.Stack{refDominanceFilter(set)}
	return c
}

// FuzzReduceSet drives the same differential check from fuzzer bytes.
func FuzzReduceSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 3, 5, 9, 2, 7, 1, 1, 2, 3, 0, 4, 4, 4, 4, 2, 1, 0, 2})
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(i*131 + 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := genReduceCase(&byteSource{data})
		var r reducer
		checkAgainstOracle(t, &r, &c)
	})
}

// TestGenerateMatchesOracle runs the whole traversal on real segment graphs
// against the historical traversal, across the option settings that change
// the reduction's path, on the scheduler at one and two workers.
func TestGenerateMatchesOracle(t *testing.T) {
	cfg := config.Baseline()
	zeroTLB := cfg.Lat.With(stacks.ITLB, 0).With(stacks.DTLB, 0).With(stacks.Store, 0)
	for i, name := range []string{"429.mcf", "444.namd", "458.sjeng"} {
		if !inSample(i, 3) {
			continue
		}
		prof, _ := workload.ByName(name)
		tr := simTrace(t, cfg, workload.Stream(prof, 5, 1500))
		g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
		if err != nil {
			t.Fatal(err)
		}
		def := DefaultOptions()
		noUnique, capped, loose := def, def, def
		noUnique.PreserveUnique = false
		capped.MaxStacks = 4
		loose.CosineThreshold = 0.3
		for _, o := range []Options{def, noUnique, capped, loose} {
			for _, base := range []*stacks.Latencies{&cfg.Lat, &zeroTLB} {
				want := refGenerate(g, base, &o)
				for _, workers := range []int{1, 2} {
					o.Parallelism = workers
					got := AnalyzeGraph(g, base, o)
					if len(got) != len(want) {
						t.Fatalf("%s %+v: %d stacks, oracle %d", name, o, len(got), len(want))
					}
					for i := range got {
						if got[i].Counts != want[i].Counts {
							t.Fatalf("%s %+v: stack %d differs from the oracle", name, o, i)
						}
					}
				}
			}
		}
	}
}
