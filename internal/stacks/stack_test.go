package stacks

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func baseLat() Latencies {
	var l Latencies
	l[Base] = 1
	l[L1I], l[L2I], l[MemI], l[ITLB] = 2, 12, 133, 20
	l[L1D], l[L2D], l[MemD], l[DTLB] = 4, 12, 133, 20
	l[Agu], l[Store], l[Branch] = 2, 1, 8
	l[IntAlu], l[IntMul], l[IntDiv] = 1, 4, 32
	l[FpAdd], l[FpMul], l[FpDiv] = 6, 6, 24
	return l
}

func randStack(rng *rand.Rand) Stack {
	var s Stack
	for e := 0; e < int(NumEvents); e++ {
		if rng.Intn(2) == 0 {
			s.Counts[e] = float64(rng.Intn(50))
		}
	}
	return s
}

func TestTotalIsDotProduct(t *testing.T) {
	l := baseLat()
	var s Stack
	s.Add(L1D, 3)
	s.Add(FpMul, 2)
	s.Add(Base, 10)
	want := 3*4 + 2*6 + 10*1.0
	if got := s.Total(&l); got != want {
		t.Fatalf("Total = %g, want %g", got, want)
	}
	p := s.Penalties(&l)
	if p[L1D] != 12 || p[FpMul] != 12 || p[Base] != 10 {
		t.Fatalf("Penalties = %v", p)
	}
}

func TestAddStackAndScaled(t *testing.T) {
	var a, b Stack
	a.Add(L1D, 2)
	b.Add(L1D, 3)
	b.Add(FpAdd, 1)
	a.AddStack(&b)
	if a.Counts[L1D] != 5 || a.Counts[FpAdd] != 1 {
		t.Fatalf("AddStack got %v", a.Counts)
	}
	h := a.Scaled(0.5)
	if h.Counts[L1D] != 2.5 || a.Counts[L1D] != 5 {
		t.Fatalf("Scaled mutated receiver or miscomputed: %v %v", h.Counts, a.Counts)
	}
}

func TestSupportAndIsZero(t *testing.T) {
	var s Stack
	if !s.IsZero() || s.Support() != 0 {
		t.Fatal("zero stack misreported")
	}
	s.Add(FpDiv, 1)
	if s.IsZero() {
		t.Fatal("nonzero stack reported zero")
	}
	if s.Support() != 1<<uint(FpDiv) {
		t.Fatalf("Support = %b", s.Support())
	}
}

func TestDominates(t *testing.T) {
	var a, b Stack
	a.Add(L1D, 3)
	a.Add(Base, 5)
	b.Add(L1D, 2)
	if !a.Dominates(&b) {
		t.Fatal("componentwise-greater stack must dominate")
	}
	if b.Dominates(&a) {
		t.Fatal("smaller stack cannot dominate")
	}
	b.Add(FpAdd, 1)
	if a.Dominates(&b) {
		t.Fatal("stack missing a component cannot dominate")
	}
	if !a.Dominates(&a) {
		t.Fatal("a stack dominates itself")
	}
}

// TestDominationImpliesNeverLonger is the soundness property behind the
// lossless reduction: if a dominates b, then under every non-negative
// latency assignment a's total is at least b's.
func TestDominationImpliesNeverLonger(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := randStack(rng)
		b := randStack(rng)
		if !a.Dominates(&b) {
			return true
		}
		var l Latencies
		for e := range l {
			l[e] = float64(rng.Intn(100))
		}
		return a.Total(&l) >= b.Total(&l)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSimilarityFigure9 replays the shape of the paper's Figure 9 example:
// per-dimension max-normalization makes similarity insensitive to uniform
// scaling of a shared dimension, and a path with a unique component is far
// from a path without it.
func TestSimilarityFigure9(t *testing.T) {
	l := baseLat()
	var a, b, c Stack
	a.Add(L1D, 30)
	a.Add(FpAdd, 10)
	b.Add(L1D, 28)
	b.Add(FpAdd, 9)
	c.Add(FpDiv, 10)
	if s := Similarity(&a, &b, &l); s < 0.95 {
		t.Fatalf("near-identical paths similarity %g, want >= 0.95", s)
	}
	if s := Similarity(&a, &c, &l); s != 0 {
		t.Fatalf("disjoint-support paths similarity %g, want 0", s)
	}
}

func TestSimilarityProperties(t *testing.T) {
	l := baseLat()
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a := randStack(rng)
		b := randStack(rng)
		s1 := Similarity(&a, &b, &l)
		s2 := Similarity(&b, &a, &l)
		if math.Abs(s1-s2) > 1e-12 {
			return false // symmetric
		}
		if s1 < 0 || s1 > 1 {
			return false // bounded
		}
		self := Similarity(&a, &a, &l)
		return math.Abs(self-1) < 1e-12 // reflexive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityZeroVectors(t *testing.T) {
	l := baseLat()
	var z, a Stack
	a.Add(L1D, 1)
	if s := Similarity(&z, &z, &l); s != 1 {
		t.Fatalf("two empty paths similarity %g, want 1", s)
	}
	if s := Similarity(&z, &a, &l); s != 0 {
		t.Fatalf("empty vs nonempty similarity %g, want 0", s)
	}
}

func TestLatenciesValidate(t *testing.T) {
	l := baseLat()
	if err := l.Validate(); err != nil {
		t.Fatalf("baseline latencies invalid: %v", err)
	}
	bad := l
	bad[Base] = 2
	if bad.Validate() == nil {
		t.Fatal("Base != 1 must fail")
	}
	bad = l
	bad[FpMul] = 0
	if bad.Validate() == nil {
		t.Fatal("zero FU latency must fail")
	}
	bad = l
	bad[L1D] = -1
	if bad.Validate() == nil {
		t.Fatal("negative latency must fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []Event{L1D, DTLB} {
			bad = l
			bad[e] = v
			if bad.Validate() == nil {
				t.Fatalf("%s latency %g must fail", e, v)
			}
		}
	}
	ok := l
	ok[DTLB] = 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero TLB penalty should be legal: %v", err)
	}
}

func TestLatenciesWithAndScale(t *testing.T) {
	l := baseLat()
	m := l.With(L1D, 2)
	if l[L1D] != 4 || m[L1D] != 2 {
		t.Fatal("With must copy")
	}
	s := l.Scale(FpDiv, 0.1) // 24 * 0.1 = 2.4 -> ceil 3
	if s[FpDiv] != 3 {
		t.Fatalf("Scale rounded to %g, want 3", s[FpDiv])
	}
	s = l.Scale(IntAlu, 0.01) // floors at one cycle
	if s[IntAlu] != 1 {
		t.Fatalf("Scale floor = %g, want 1", s[IntAlu])
	}
}

func TestFormatMentionsLargestComponent(t *testing.T) {
	l := baseLat()
	var s Stack
	s.Add(MemD, 10)
	s.Add(Base, 1)
	got := s.Format(&l)
	if want := "MemD=1330"; !strings.Contains(got, want) {
		t.Fatalf("Format %q missing %q", got, want)
	}
}
