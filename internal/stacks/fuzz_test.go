package stacks_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stacks"
)

// fuzzStacks decodes a byte string into two stall-event stacks and a latency
// assignment: three float64 streams, folded into sane non-negative finite
// ranges so the fuzzer explores the metric rather than IEEE corner cases the
// domain never produces (counts and latencies are finite and non-negative by
// construction).
func fuzzStacks(data []byte) (a, b stacks.Stack, l stacks.Latencies) {
	fold := func(i int, scale float64) float64 {
		var u uint64
		off := i * 8
		if off+8 <= len(data) {
			u = binary.LittleEndian.Uint64(data[off : off+8])
		}
		v := math.Abs(math.Float64frombits(u))
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = float64(u % 1000)
		}
		v = math.Mod(v, scale)
		if v < 1e-9 {
			v = 0 // flush denormal-range folds: products of real counts and latencies never underflow
		}
		return v
	}
	n := int(stacks.NumEvents)
	for e := 0; e < n; e++ {
		a.Counts[e] = fold(e, 1e6)
		b.Counts[e] = fold(n+e, 1e6)
		l[e] = fold(2*n+e, 300)
	}
	return a, b, l
}

// refSimilarity is Similarity as it was before PenaltySimilarity: both sides
// divided by the larger in every dimension. The kernel must match it bit for
// bit.
func refSimilarity(a, b *stacks.Stack, l *stacks.Latencies) float64 {
	var dot, na, nb float64
	for i := range a.Counts {
		pa := a.Counts[i] * l[i]
		pb := b.Counts[i] * l[i]
		m := pa
		if pb > m {
			m = pb
		}
		if m == 0 {
			continue // both zero: the dimension carries no information
		}
		pa /= m
		pb /= m
		dot += pa * pb
		na += pa * pa
		nb += pb * pb
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	sim := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Guard against floating-point drift outside [0, 1].
	if sim > 1 {
		sim = 1
	}
	if sim < 0 {
		sim = 0
	}
	return sim
}

// checkKernel fails unless PenaltySimilarity equals refSimilarity exactly,
// on the full penalty vectors and with the dimensions zero in both dropped.
func checkKernel(t *testing.T, a, b *stacks.Stack, l *stacks.Latencies) {
	t.Helper()
	want := refSimilarity(a, b, l)
	if got := stacks.Similarity(a, b, l); got != want {
		t.Fatalf("Similarity %v, reference %v (a=%v b=%v l=%v)", got, want, a.Counts, b.Counts, *l)
	}
	pa, pb := a.Penalties(l), b.Penalties(l)
	var ca, cb []float64
	for e := range pa {
		if pa[e] != 0 || pb[e] != 0 {
			ca, cb = append(ca, pa[e]), append(cb, pb[e])
		}
	}
	if got := stacks.PenaltySimilarity(ca, cb); got != want {
		t.Fatalf("PenaltySimilarity on nonzero dimensions %v, reference %v", got, want)
	}
}

// TestSimilarityMatchesReference compares the kernel with the reference on
// integer stacks shaped like the analyzer's: shared and exclusive events,
// equal penalties (ties) and zero latencies.
func TestSimilarityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		var a, b stacks.Stack
		var l stacks.Latencies
		for e := range l {
			l[e] = float64(rng.Intn(8))
			switch rng.Intn(4) {
			case 0: // neither
			case 1:
				a.Counts[e] = float64(rng.Intn(50))
			case 2:
				b.Counts[e] = float64(rng.Intn(50))
			default:
				a.Counts[e] = float64(rng.Intn(50))
				b.Counts[e] = a.Counts[e] + float64(rng.Intn(3)-1)
			}
			b.Counts[e] = math.Abs(b.Counts[e])
		}
		checkKernel(t, &a, &b, &l)
	}
}

// FuzzSimilarity checks the metric axioms of the paper's modified cosine
// similarity (Figure 9) on arbitrary stack pairs, and that the kernel equals
// the reference bit for bit: the result is within
// [0, 1], exactly symmetric, 1 on self-comparison, and 1 between any stack
// and a positive scaling of itself (the normalization property the merge
// threshold relies on).
func FuzzSimilarity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed := make([]byte, int(stacks.NumEvents)*3*8)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, l := fuzzStacks(data)
		checkKernel(t, &a, &b, &l)
		s := stacks.Similarity(&a, &b, &l)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("similarity %g outside [0, 1]", s)
		}
		if r := stacks.Similarity(&b, &a, &l); r != s {
			t.Fatalf("asymmetric: sim(a,b)=%g sim(b,a)=%g", s, r)
		}
		if self := stacks.Similarity(&a, &a, &l); math.Abs(self-1) > 1e-9 {
			t.Fatalf("self-similarity %g, want 1", self)
		}
		// Per-dimension max-normalization makes the metric scale-invariant.
		scaled := a.Scaled(3)
		if s := stacks.Similarity(&a, &scaled, &l); math.Abs(s-1) > 1e-9 {
			t.Fatalf("similarity to own scaling %g, want 1", s)
		}
	})
}
