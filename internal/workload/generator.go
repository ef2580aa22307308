package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// Code layout constants. Each macro-op occupies macroBytes of the static
// code image (x86 instructions average a few bytes; we round up so that
// realistic block counts produce realistic instruction-cache footprints).
const (
	CodeBase   = uint64(0x0040_0000)
	macroBytes = 16
)

// Address-region bases per kind, far apart so regions never alias.
const (
	l1Base    = uint64(1) << 30
	l2Base    = uint64(1) << 31
	memBase   = uint64(3) << 30
	chaseBase = uint64(1) << 32
)

// stream produces the effective addresses of one static memory reference.
type stream struct {
	base   uint64
	size   uint64
	stride uint64
	chase  bool
	pos    uint64
	state  uint64
}

func (s *stream) next() uint64 {
	if s.chase {
		// A multiplicative LCG walk: visits pseudo-random 8-byte slots of
		// the region, defeating both spatial locality and strided
		// prefetch-like reuse.
		s.state = s.state*6364136223846793005 + 1442695040888963407
		slot := (s.state >> 17) % (s.size / 8)
		return s.base + slot*8
	}
	a := s.base + s.pos
	s.pos += s.stride
	if s.pos >= s.size {
		s.pos = 0
	}
	return a
}

// macroTmpl is one static macro-op slot of a basic block.
type macroTmpl struct {
	cat    isa.OpClass // macro category; Branch only as block terminator
	stream int         // memory stream index, -1 when not a memory op
	fuse   bool        // load-op macro: load µop plus dependent compute µop
	fused  isa.OpClass // class of the fused compute µop
	fpDest bool        // load destination goes to the FP bank

	// Terminator fields.
	bias     float64 // probability the branch is taken
	takenTgt int     // successor block when taken
	fallTgt  int     // successor block when not taken
}

// block is one static basic block.
type block struct {
	id     int
	pc     uint64
	phase  int
	macros []macroTmpl
}

// Generator produces the dynamic µop stream of one synthetic benchmark. The
// same (profile, seed) pair always produces the identical stream.
type Generator struct {
	prof   Profile
	blocks []block
	// perPhase[i] lists the block ids belonging to phase i.
	perPhase [][]int
	streams  []*stream
	// phaseStreamPools[i][kind] lists stream indices of region kind
	// (0=L1, 1=L2, 2=Mem, 3=Chase) available to phase i.
	phaseStreamPools [][4][]int
	rng              *rand.Rand

	// Dynamic state.
	cur       int // current block id
	phaseIdx  int
	phaseLeft int // macro-ops remaining in the current phase
	macroIdx  int // next macro slot within the current block
	macroSeq  uint64
	microSeq  uint64
	// pending holds the µops of the current macro-op (one or two), built
	// in place; pending[head:npend] are not yet returned.
	pending   [2]isa.MicroOp
	head      int
	npend     int
	intRing   ring
	fpRing    ring
	chaseLast map[int]int // stream index -> register holding the last chased pointer
	inductReg int         // integer register serving as strided address base
}

// ring remembers recently written registers of one bank.
type ring struct {
	regs [8]int
	n    int
}

func (r *ring) push(reg int) {
	copy(r.regs[1:], r.regs[:len(r.regs)-1])
	r.regs[0] = reg
	if r.n < len(r.regs) {
		r.n++
	}
}

// pick returns a recently written register: the most recent with probability
// chain, otherwise a geometrically older one.
func (r *ring) pick(rng *rand.Rand, chain float64) int {
	if r.n == 0 {
		return 0
	}
	if rng.Float64() < chain {
		return r.regs[0]
	}
	i := 1
	for i < r.n-1 && rng.Float64() < 0.5 {
		i++
	}
	if i >= r.n {
		i = r.n - 1
	}
	return r.regs[i]
}

// NewGenerator builds the static program for the profile and prepares the
// dynamic state. The stream is infinite; callers take as many µops as they
// need.
func NewGenerator(p Profile, seed int64) *Generator {
	if len(p.Phases) == 0 {
		panic(fmt.Sprintf("workload: profile %s has no phases", p.Name))
	}
	g := &Generator{
		prof:      p,
		rng:       rand.New(rand.NewSource(seed + 1)),
		chaseLast: make(map[int]int),
		inductReg: 0,
	}
	build := rand.New(rand.NewSource(seed))
	g.buildStreams(build)
	g.buildBlocks(build)
	g.phaseIdx = 0
	g.phaseLeft = p.Phases[0].MacroOps
	g.cur = g.perPhase[0][0]
	g.intRing.push(1)
	g.fpRing.push(isa.NumIntRegs)
	return g
}

// buildStreams creates, per phase, a handful of streams of each region kind
// and records their indices for template binding.
func (g *Generator) buildStreams(build *rand.Rand) {
	for pi, ph := range g.prof.Phases {
		mk := func(kind int) int {
			var s *stream
			switch kind {
			case 0:
				s = &stream{base: l1Base + uint64(pi)<<24, size: l1RegionBytes, stride: 8}
			case 1:
				s = &stream{base: l2Base + uint64(pi)<<24, size: l2RegionBytes, stride: 64}
			case 2:
				s = &stream{base: memBase + uint64(pi)<<27, size: memRegionBytes, stride: 64}
			default:
				sz := ph.Locality.ChaseBytes
				if sz <= 0 {
					sz = 8 << 20
				}
				s = &stream{base: chaseBase + uint64(pi)<<27, size: uint64(sz), chase: true,
					state: build.Uint64() | 1}
			}
			g.streams = append(g.streams, s)
			return len(g.streams) - 1
		}
		// A small pool per kind so distinct static references interleave.
		pools := [4][]int{}
		for kind := 0; kind < 4; kind++ {
			for j := 0; j < 2; j++ {
				pools[kind] = append(pools[kind], mk(kind))
			}
		}
		g.phaseStreamPools = append(g.phaseStreamPools, pools)
	}
}

// pickStream selects a stream index for a new static memory reference in the
// given phase according to the phase's locality weights.
func (g *Generator) pickStream(build *rand.Rand, pi int) int {
	loc := g.prof.Phases[pi].Locality
	w := [4]float64{loc.L1, loc.L2, loc.Mem, loc.Chase}
	total := w[0] + w[1] + w[2] + w[3]
	if total <= 0 {
		w = [4]float64{1, 0, 0, 0}
		total = 1
	}
	x := build.Float64() * total
	kind := 0
	for kind < 3 && x >= w[kind] {
		x -= w[kind]
		kind++
	}
	pool := g.phaseStreamPools[pi][kind]
	return pool[build.Intn(len(pool))]
}

// drawCat draws a macro category from the phase mix (excluding Branch, which
// only terminates blocks).
func drawCat(build *rand.Rand, m MixSpec) isa.OpClass {
	type wc struct {
		c isa.OpClass
		w float64
	}
	ws := []wc{
		{isa.IntAlu, m.IntAlu}, {isa.IntMul, m.IntMul}, {isa.IntDiv, m.IntDiv},
		{isa.FpAdd, m.FpAdd}, {isa.FpMul, m.FpMul}, {isa.FpDiv, m.FpDiv},
		{isa.Load, m.Load}, {isa.Store, m.Store},
	}
	var total float64
	for _, w := range ws {
		total += w.w
	}
	if total <= 0 {
		return isa.IntAlu
	}
	x := build.Float64() * total
	for _, w := range ws {
		if x < w.w {
			return w.c
		}
		x -= w.w
	}
	return isa.IntAlu
}

// drawCompute draws a compute class for the fused half of a load-op macro.
func drawCompute(build *rand.Rand, m MixSpec) isa.OpClass {
	for i := 0; i < 8; i++ {
		c := drawCat(build, m)
		if !c.IsMem() {
			return c
		}
	}
	if m.FpAdd+m.FpMul+m.FpDiv > m.IntAlu {
		return isa.FpAdd
	}
	return isa.IntAlu
}

// buildBlocks creates the static basic blocks, split evenly across phases,
// and wires the branch successor graph within each phase.
func (g *Generator) buildBlocks(build *rand.Rand) {
	nPhases := len(g.prof.Phases)
	per := g.prof.Blocks / nPhases
	if per < 2 {
		per = 2
	}
	g.perPhase = make([][]int, nPhases)
	g.blocks = make([]block, 0, nPhases*per)
	id := 0
	for pi := 0; pi < nPhases; pi++ {
		ph := g.prof.Phases[pi]
		fpShare := fpFraction(ph.Mix)
		first := id
		for b := 0; b < per; b++ {
			blk := block{id: id, phase: pi, pc: CodeBase + uint64(id)*uint64(g.prof.BlockLen)*macroBytes,
				macros: make([]macroTmpl, 0, g.prof.BlockLen)}
			for m := 0; m < g.prof.BlockLen-1; m++ {
				t := macroTmpl{cat: drawCat(build, ph.Mix), stream: -1}
				switch t.cat {
				case isa.Load:
					t.stream = g.pickStream(build, pi)
					t.fpDest = build.Float64() < fpShare
					if build.Float64() < g.prof.LoadOpFuse {
						t.fuse = true
						t.fused = drawCompute(build, ph.Mix)
					}
				case isa.Store:
					t.stream = g.pickStream(build, pi)
				}
				blk.macros = append(blk.macros, t)
			}
			// Terminator branch.
			term := macroTmpl{cat: isa.Branch, stream: -1}
			if build.Float64() < g.prof.BiasedBranches {
				if build.Float64() < 0.5 {
					term.bias = 0.92
				} else {
					term.bias = 0.08
				}
			} else {
				term.bias = 0.35 + 0.3*build.Float64()
			}
			// A third of blocks self-loop when taken (hot loops); the rest
			// jump to a random block of the same phase.
			if build.Float64() < 0.33 {
				term.takenTgt = id
			} else {
				term.takenTgt = first + build.Intn(per)
			}
			term.fallTgt = first + (id-first+1)%per
			blk.macros = append(blk.macros, term)
			g.blocks = append(g.blocks, blk)
			g.perPhase[pi] = append(g.perPhase[pi], id)
			id++
		}
	}
}

func fpFraction(m MixSpec) float64 {
	fp := m.FpAdd + m.FpMul + m.FpDiv
	all := fp + m.IntAlu + m.IntMul + m.IntDiv
	if all <= 0 {
		return 0
	}
	return fp / all
}

// newDest allocates a destination register in the requested bank, avoiding
// the reserved induction register.
func (g *Generator) newDest(fp bool) int {
	if fp {
		r := isa.NumIntRegs + g.rng.Intn(isa.NumFPRegs)
		g.fpRing.push(r)
		return r
	}
	r := 2 + g.rng.Intn(isa.NumIntRegs-2)
	g.intRing.push(r)
	return r
}

func (g *Generator) srcFor(fp bool) int {
	if fp {
		return g.fpRing.pick(g.rng, g.prof.ChainBias)
	}
	return g.intRing.pick(g.rng, g.prof.ChainBias)
}

// Take returns the next n µops.
func (g *Generator) Take(n int) []isa.MicroOp {
	out := make([]isa.MicroOp, n)
	for i := 0; i < n; {
		if g.head == g.npend {
			g.emitMacro()
		}
		k := copy(out[i:], g.pending[g.head:g.npend])
		g.head += k
		i += k
	}
	return out
}

// slot starts the next µop of the current macro-op in the pending buffer:
// sequence numbers and PC stamped, register operands absent. The caller
// fills in the rest.
func (g *Generator) slot(mseq, pc uint64) *isa.MicroOp {
	u := &g.pending[g.npend]
	g.npend++
	*u = isa.MicroOp{}
	u.Seq, u.MacroSeq, u.PC = g.microSeq, mseq, pc
	u.Dest, u.Src1, u.Src2 = isa.RegNone, isa.RegNone, isa.RegNone
	g.microSeq++
	return u
}

// emitMacro expands the current macro template into µops, advances the block
// walk, and handles phase rotation. Register draws happen in a fixed order —
// a µop's destination before its sources — because the destination joins
// the ring its sources pick from.
func (g *Generator) emitMacro() {
	blk := &g.blocks[g.cur]
	t := &blk.macros[g.macroIdx]
	pc := blk.pc + uint64(g.macroIdx)*macroBytes
	mseq := g.macroSeq
	g.macroSeq++
	g.head, g.npend = 0, 0

	switch t.cat {
	case isa.Load:
		s := g.streams[t.stream]
		addr := s.next()
		var addrReg int
		switch {
		case s.chase:
			if r, ok := g.chaseLast[t.stream]; ok {
				addrReg = r
			} else {
				addrReg = g.inductReg
			}
		case g.rng.Float64() < g.prof.IndexedAddr:
			// Indexed addressing: the address depends on a recent integer
			// result, serializing the access into the chain.
			addrReg = g.intRing.pick(g.rng, 0.5)
		default:
			addrReg = g.inductReg
		}
		// A chased pointer must live in the integer bank so the next hop's
		// address depends on this load.
		dest := g.newDest(t.fpDest && !s.chase)
		if s.chase {
			g.chaseLast[t.stream] = dest
		}
		ld := g.slot(mseq, pc)
		ld.Class, ld.Dest, ld.Src1, ld.Addr = isa.Load, dest, addrReg, addr
		ld.SoM, ld.EoM = true, !t.fuse
		if t.fuse {
			fp := t.fused.FU() == isa.FUFP
			op := g.slot(mseq, pc)
			op.Class, op.Src1, op.EoM = t.fused, dest, true
			op.Dest = g.newDest(fp)
			op.Src2 = g.srcFor(fp)
		}
	case isa.Store:
		s := g.streams[t.stream]
		st := g.slot(mseq, pc)
		st.Class, st.Src2, st.Addr = isa.Store, g.inductReg, s.next()
		st.SoM, st.EoM = true, true
		st.Src1 = g.srcFor(false)
	case isa.Branch:
		taken := g.rng.Float64() < t.bias
		next := t.fallTgt
		if taken {
			next = t.takenTgt
		}
		cmp := g.slot(mseq, pc)
		cmp.Class, cmp.SoM = isa.IntAlu, true
		cmp.Dest = g.newDest(false)
		cmp.Src1 = g.srcFor(false)
		br := g.slot(mseq, pc)
		br.Class, br.Src1 = isa.Branch, cmp.Dest
		br.Taken, br.Target, br.EoM = taken, g.blocks[next].pc, true
		g.advance(next)
		return
	default: // pure compute macro
		fp := t.cat.FU() == isa.FUFP
		u := g.slot(mseq, pc)
		u.Class, u.SoM, u.EoM = t.cat, true, true
		u.Dest = g.newDest(fp)
		u.Src1 = g.srcFor(fp)
		u.Src2 = g.srcFor(fp)
	}
	g.macroIdx++
	if g.macroIdx >= len(blk.macros) {
		// Defensive: blocks always end with a branch, handled above.
		g.advance(blk.id)
	}
	g.stepPhase()
}

// advance moves the walk to the next block and rotates phases when the
// current phase's macro budget is exhausted.
func (g *Generator) advance(next int) {
	g.macroIdx = 0
	g.cur = next
	g.stepPhase()
}

func (g *Generator) stepPhase() {
	g.phaseLeft--
	if g.phaseLeft > 0 {
		return
	}
	g.phaseIdx = (g.phaseIdx + 1) % len(g.prof.Phases)
	g.phaseLeft = g.prof.Phases[g.phaseIdx].MacroOps
	g.cur = g.perPhase[g.phaseIdx][0]
	g.macroIdx = 0
}

// BlockOf maps a µop PC back to its static basic-block index, for
// basic-block-vector collection.
func (g *Generator) BlockOf(pc uint64) int {
	if pc < CodeBase {
		return 0
	}
	i := int((pc - CodeBase) / (uint64(g.prof.BlockLen) * macroBytes))
	if i >= len(g.blocks) {
		i = len(g.blocks) - 1
	}
	return i
}

// NumBlocks returns the static basic-block count of the built program.
func (g *Generator) NumBlocks() int { return len(g.blocks) }

// DataLines returns one address per cache line of every cache-fitting
// strided data region, for pre-warming the data hierarchy: a resident
// working set would have been touched long before the sampled region.
// Memory-sized and pointer-chase regions are omitted — their misses are the
// workload's character.
func (g *Generator) DataLines() []uint64 {
	const lineBytes = 64
	const fitBound = 2 << 20 // only regions that comfortably fit in the L2
	var addrs []uint64
	for _, s := range g.streams {
		if s.chase || s.size > fitBound {
			continue
		}
		for off := uint64(0); off < s.size; off += lineBytes {
			addrs = append(addrs, s.base+off)
		}
	}
	return addrs
}

// CodeLines returns one address per cache line of the static code image,
// for pre-warming instruction caches.
func (g *Generator) CodeLines() []uint64 {
	const lineBytes = 64
	end := CodeBase + uint64(len(g.blocks)*g.prof.BlockLen)*macroBytes
	var pcs []uint64
	for pc := CodeBase; pc < end; pc += lineBytes {
		pcs = append(pcs, pc)
	}
	return pcs
}

// MeasuredRegion takes the next warmup+n µops and splits them into the
// functional warmup and the measured region, the cut snapped forward to the
// next macro-op boundary so no macro-op straddles it. Every producer of a
// workload trace splits here — rpserved, fleet workers, the experiments
// runner and rptrace — so a stream rebuilt in another process fingerprints
// like the original.
func (g *Generator) MeasuredRegion(warmup, n int) (warm, measured []isa.MicroOp) {
	stream := g.Take(warmup + n)
	cut := warmup
	for cut < len(stream) && !stream[cut].SoM {
		cut++
	}
	return stream[:cut], stream[cut:]
}

// DefaultWarmup is the functional warmup of a measured region of n µops
// when the caller picks none: 3n µops, the convention rpserved jobs and
// fleet sweep recipes are regenerated under.
func DefaultWarmup(n int) int { return 3 * n }

// Stream is a convenience wrapper producing the first n µops of the
// benchmark for the given seed.
func Stream(p Profile, seed int64, n int) []isa.MicroOp {
	return NewGenerator(p, seed).Take(n)
}
