package workload

import (
	"math"
	"testing"

	"repro/internal/isa"
)

func TestStreamDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		a := Stream(p, 42, 5000)
		b := Stream(p, 42, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: streams diverge at µop %d", p.Name, i)
			}
		}
		c := Stream(p, 43, 5000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical streams", p.Name)
		}
	}
}

func TestStreamWellFormed(t *testing.T) {
	for _, p := range Profiles() {
		uops := Stream(p, 7, 8000)
		inMacro := false
		for i := range uops {
			u := &uops[i]
			if err := u.Validate(); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if u.Seq != uint64(i) {
				t.Fatalf("%s: µop %d has Seq %d", p.Name, i, u.Seq)
			}
			if u.SoM == inMacro {
				t.Fatalf("%s: macro-op framing broken at µop %d", p.Name, i)
			}
			inMacro = !u.EoM
			if u.PC < CodeBase {
				t.Fatalf("%s: µop %d below code base", p.Name, i)
			}
		}
	}
}

func TestMixApproximatesProfile(t *testing.T) {
	p, _ := ByName("456.hmmer")
	uops := Stream(p, 3, 40000)
	counts := map[isa.OpClass]float64{}
	macros := 0.0
	for i := range uops {
		if uops[i].SoM {
			macros++
		}
		counts[uops[i].Class]++
	}
	// hmmer is integer code: no FP µops at all, and loads near the profile
	// weight relative to macro-ops.
	if counts[isa.FpAdd]+counts[isa.FpMul]+counts[isa.FpDiv] > 0 {
		t.Fatal("hmmer profile emitted FP µops")
	}
	loadFrac := counts[isa.Load] / macros
	if math.Abs(loadFrac-0.30) > 0.08 {
		t.Fatalf("load fraction per macro = %.3f, want ~0.30", loadFrac)
	}
	if counts[isa.Branch] == 0 || counts[isa.Store] == 0 {
		t.Fatal("missing branches or stores")
	}
}

func TestChaseLoadsDependOnPreviousLoad(t *testing.T) {
	p, _ := ByName("429.mcf")
	gen := NewGenerator(p, 5)
	uops := gen.Take(20000)
	// At least some loads must use a register written by an earlier load
	// (the chased pointer living in the integer bank).
	lastLoadDest := map[int]bool{}
	chained := 0
	for i := range uops {
		u := &uops[i]
		if u.Class == isa.Load {
			if lastLoadDest[u.Src1] {
				chained++
			}
			if u.Dest != isa.RegNone {
				lastLoadDest[u.Dest] = true
			}
		}
	}
	if chained < 100 {
		t.Fatalf("mcf produced only %d chained loads", chained)
	}
}

func TestBlockOfInvertsPCs(t *testing.T) {
	p, _ := ByName("416.gamess")
	gen := NewGenerator(p, 1)
	uops := gen.Take(2000)
	for i := range uops {
		b := gen.BlockOf(uops[i].PC)
		if b < 0 || b >= gen.NumBlocks() {
			t.Fatalf("µop %d maps to block %d of %d", i, b, gen.NumBlocks())
		}
	}
}

func TestCodeAndDataLines(t *testing.T) {
	p, _ := ByName("416.gamess")
	gen := NewGenerator(p, 1)
	lines := gen.CodeLines()
	if len(lines) == 0 {
		t.Fatal("no code lines")
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] != lines[i-1]+64 {
			t.Fatal("code lines must be consecutive 64B lines")
		}
	}
	data := gen.DataLines()
	if len(data) == 0 {
		t.Fatal("no data lines for a cache-resident profile")
	}
	// mcf's chase region must NOT be pre-warmed.
	mcf, _ := ByName("429.mcf")
	mg := NewGenerator(mcf, 1)
	for _, a := range mg.DataLines() {
		if a >= uint64(1)<<32 {
			t.Fatalf("chase-region line %#x in warm set", a)
		}
	}
}

func TestPhaseRotation(t *testing.T) {
	p, _ := ByName("401.bzip2")
	if len(p.Phases) < 2 {
		t.Fatal("bzip2 profile must be phased")
	}
	gen := NewGenerator(p, 2)
	// Drive past the first phase boundary and observe the PC range move to
	// the second phase's block subset.
	budget := p.Phases[0].MacroOps + 2000
	var seen []int
	for i := 0; i < budget; {
		u := gen.Next()
		if u.SoM {
			i++
		}
		seen = append(seen, gen.BlockOf(u.PC))
	}
	first := seen[0]
	last := seen[len(seen)-1]
	perPhase := gen.NumBlocks() / len(p.Phases)
	if first >= perPhase {
		t.Fatalf("execution must start in phase 0 blocks, got block %d", first)
	}
	if last < perPhase {
		t.Fatalf("execution must move to phase 1 blocks, still at %d", last)
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := ByName("no.such"); ok {
		t.Fatal("unknown profile found")
	}
	names := Names()
	if len(names) != len(Profiles()) {
		t.Fatal("Names and Profiles disagree")
	}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Fatalf("%s unfindable", n)
		}
	}
}

func TestTakeMatchesNext(t *testing.T) {
	p, _ := ByName("470.lbm")
	a := NewGenerator(p, 4)
	b := NewGenerator(p, 4)
	batch := a.Take(500)
	for i := range batch {
		if u := b.Next(); u != batch[i] {
			t.Fatalf("Take and Next diverge at %d", i)
		}
	}
}

// TestMeasuredRegion pins the split every trace producer shares: warmup and
// region together are the first warmup+n µops, and the region opens a
// macro-op at the first boundary at or after warmup.
func TestMeasuredRegion(t *testing.T) {
	p, _ := ByName("416.gamess")
	const n = 3000
	warmup := DefaultWarmup(n)
	warm, measured := NewGenerator(p, 42).MeasuredRegion(warmup, n)
	all := NewGenerator(p, 42).Take(warmup + n)
	if len(warm)+len(measured) != len(all) {
		t.Fatalf("split %d+%d µops, want %d", len(warm), len(measured), len(all))
	}
	if len(warm) < warmup || !measured[0].SoM {
		t.Fatalf("cut at %d (SoM %v), want the first macro-op boundary at or after %d",
			len(warm), measured[0].SoM, warmup)
	}
	for i := warmup; i < len(warm); i++ {
		if all[i].SoM {
			t.Fatalf("boundary at %d skipped; cut at %d", i, len(warm))
		}
	}
	for i, u := range append(append([]isa.MicroOp(nil), warm...), measured...) {
		if u != all[i] {
			t.Fatalf("µop %d differs from Take", i)
		}
	}
}

// Next returns the next µop of the infinite committed stream, one at a
// time: the reference Take's batches are checked against.
func (g *Generator) Next() isa.MicroOp {
	if g.head == g.npend {
		g.emitMacro()
	}
	g.head++
	return g.pending[g.head-1]
}
