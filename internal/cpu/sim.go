// Package cpu implements the cycle-level out-of-order superscalar timing
// simulator that stands in for MARSSx86. It is trace-driven: the committed
// µop stream comes from the workload generator, and the simulator models the
// timing of fetching, renaming, dispatching, issuing, executing and
// committing that stream against the configured structure and latencies,
// while emitting the dynamic trace (timings, penalty events, resource-free
// edges) the dependence-graph builder consumes.
//
// The timing rules are chosen to line up with the dependence-graph model of
// Table I so that the graph can reproduce simulated cycles closely; dynamic
// effects the graph cannot see — issue-width arbitration, functional-unit
// structural hazards, MSHR and LSQ occupancy — remain, and are exactly the
// residual error the paper's Figure 10 quantifies.
package cpu

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stacks"
	"repro/internal/trace"
)

// Stats summarizes one simulation run beyond the trace itself.
type Stats struct {
	Cycles      int64
	MicroOps    int
	Mispredicts uint64
	IServed     [mem.NumLevels]uint64
	DServed     [mem.NumLevels]uint64
	ITLBMisses  uint64
	DTLBMisses  uint64
}

// CPI returns cycles per µop.
func (s *Stats) CPI() float64 {
	if s.MicroOps == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.MicroOps)
}

// Sim is one simulator instance. A Sim is single-use: build with New, call
// Run once, then read Stats.
type Sim struct {
	cfg  *config.Config
	hier *mem.Hierarchy
	pred branch.Predictor
	btb  *branch.BTB

	// tracer records the simulation phases (warmup, prepare, simulate) as
	// spans under traceParent; nil records nothing. Set with SetTracer.
	tracer      *obs.Tracer
	traceParent uint64

	recs []trace.Record

	// Per-µop scheduling state, parallel to recs.
	bufEnter []int64 // cycle the µop entered the fetch buffer (-1 before)
	addrDone []int64 // mem ops: address pipeline (AGU+DTLB) completion (-1 unknown)
	issued   []bool

	// Precomputed program-order helpers.
	prevStore []int64 // latest store seq preceding each µop (None if none)
	storeSeqs []int   // indices of store µops in order
	macroEnd  []int   // for SoM µops: index of the macro's EoM µop

	// Front-end state.
	nextFetch   int
	accessLine  uint64
	accessReady int64
	haveLine    bool
	fbOccupancy int
	blockedOn   int64 // seq of mispredicted branch blocking fetch, None if free

	// In-order stage pointers.
	nextRename   int
	nextDispatch int
	nextCommit   int

	// Back-end state.
	iq          []int // indices of dispatched, un-issued µops in age order
	lsqUsed     int
	freeRegs    int
	regFreeList []regToken
	// divFree[unit] is the first cycle each unpipelined divider is free;
	// divLast[unit] is the divide µop occupying it.
	intDivFree []int64
	fpDivFree  []int64
	intDivLast []int64
	fpDivLast  []int64
	divBlocked []bool

	// Store-order tracking: storePtr is the count of issued stores in
	// program-order prefix terms.
	storeIssued []bool
	storePrefix int // all storeSeqs[:storePrefix] are issued

	// MSHR-tracked in-flight data line fills.
	fills map[uint64]fill
	// mshrBlocked marks loads that waited for an MSHR slot; lastExpired is
	// the most recently completed fill, the likely provider of the slot.
	mshrBlocked     []bool
	lastExpiredSeq  int64
	lastExpiredDone int64

	// Stall bookkeeping for resource-provider trace edges.
	issuedLastCycle []int
	issuedThisCycle []int
	iqStalled       bool
	regStalled      bool

	stats Stats
}

type regToken struct {
	freedBy int64 // µop whose commit freed the register, None for initial pool
}

type fill struct {
	complete int64
	seq      uint64
	level    mem.Level
}

// New builds a simulator for the design point. The configuration is
// validated; an invalid configuration is a programming error.
func New(cfg *config.Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg}
	st := &cfg.Structure
	s.hier = mem.NewHierarchy(mem.HierarchyGeometry{
		LineSize: st.LineSize,
		L1ISets:  st.L1ISets, L1IWays: st.L1IWays,
		L1DSets: st.L1DSets, L1DWays: st.L1DWays,
		L2Sets: st.L2Sets, L2Ways: st.L2Ways,
		ITLBEntries: st.ITLBSize, DTLBEntries: st.DTLBSize,
		PageSize: st.PageSize,
	})
	var err error
	s.pred, err = branch.New(st.Predictor, st.PredictorBits)
	if err != nil {
		return nil, err
	}
	s.btb = branch.NewBTB(st.BTBEntries)
	return s, nil
}

// SetTracer attaches an observability tracer: the warmup, prepare and
// simulate phases record spans under parent. A nil tracer (the default)
// records nothing and costs nothing.
func (s *Sim) SetTracer(tr *obs.Tracer, parent uint64) {
	s.tracer, s.traceParent = tr, parent
}

func (s *Sim) lat(e stacks.Event) int64 { return int64(s.cfg.Lat[e]) }

func (s *Sim) levelLatI(l mem.Level) int64 {
	switch l {
	case mem.LvlL1:
		return s.lat(stacks.L1I)
	case mem.LvlL2:
		return s.lat(stacks.L2I)
	default:
		return s.lat(stacks.MemI)
	}
}

func (s *Sim) levelLatD(l mem.Level) int64 {
	switch l {
	case mem.LvlL1:
		return s.lat(stacks.L1D)
	case mem.LvlL2:
		return s.lat(stacks.L2D)
	default:
		return s.lat(stacks.MemD)
	}
}

func (s *Sim) execLat(c isa.OpClass) int64 {
	switch c {
	case isa.IntAlu, isa.Branch:
		return s.lat(stacks.IntAlu)
	case isa.IntMul:
		return s.lat(stacks.IntMul)
	case isa.IntDiv:
		return s.lat(stacks.IntDiv)
	case isa.FpAdd:
		return s.lat(stacks.FpAdd)
	case isa.FpMul:
		return s.lat(stacks.FpMul)
	case isa.FpDiv:
		return s.lat(stacks.FpDiv)
	case isa.Store:
		return s.lat(stacks.Store)
	default:
		panic(fmt.Sprintf("cpu: no fixed execute latency for %s", c))
	}
}

// prepare resolves architectural register dataflow into producer sequence
// numbers, fills the program-order helper tables and initializes state.
func (s *Sim) prepare(uops []isa.MicroOp) error {
	n := len(uops)
	s.recs = make([]trace.Record, n)
	s.bufEnter = make([]int64, n)
	s.addrDone = make([]int64, n)
	s.issued = make([]bool, n)
	s.prevStore = make([]int64, n)
	s.macroEnd = make([]int, n)
	s.fills = make(map[uint64]fill)
	s.blockedOn = trace.None

	var lastWriter [isa.NumRegs]int64
	for i := range lastWriter {
		lastWriter[i] = trace.None
	}
	lastStore := trace.None

	for i := range uops {
		u := &uops[i]
		if err := u.Validate(); err != nil {
			return err
		}
		r := &s.recs[i]
		r.Seq = uint64(i)
		r.MacroSeq = u.MacroSeq
		r.SoM, r.EoM = u.SoM, u.EoM
		r.Class = u.Class
		r.PC, r.Addr = u.PC, u.Addr
		r.SrcDep1, r.SrcDep2, r.AddrDep = trace.None, trace.None, trace.None
		r.ShareWith, r.IQFreeBy, r.RegFreeBy = trace.None, trace.None, trace.None
		r.MSHRFreeBy, r.FUFreeBy = trace.None, trace.None

		dep := func(reg int) int64 {
			if reg == isa.RegNone {
				return trace.None
			}
			return lastWriter[reg]
		}
		switch u.Class {
		case isa.Load:
			r.AddrDep = dep(u.Src1)
		case isa.Store:
			r.SrcDep1 = dep(u.Src1)
			r.AddrDep = dep(u.Src2)
		default:
			r.SrcDep1 = dep(u.Src1)
			r.SrcDep2 = dep(u.Src2)
		}
		s.prevStore[i] = lastStore
		if u.Class == isa.Store {
			lastStore = int64(i)
			s.storeSeqs = append(s.storeSeqs, i)
		}
		if u.Dest != isa.RegNone {
			lastWriter[u.Dest] = int64(i)
		}
		s.bufEnter[i] = -1
		s.addrDone[i] = -1
	}
	s.storeIssued = make([]bool, len(s.storeSeqs))
	s.mshrBlocked = make([]bool, n)
	s.lastExpiredSeq = trace.None

	// Macro boundaries: for each SoM µop, the index of its EoM µop.
	end := n - 1
	for i := n - 1; i >= 0; i-- {
		if s.recs[i].EoM {
			end = i
		}
		s.macroEnd[i] = end
	}

	st := &s.cfg.Structure
	s.freeRegs = st.PhysRegs - isa.NumRegs
	if s.freeRegs < 0 {
		return fmt.Errorf("cpu: %d physical registers cannot back %d architectural",
			st.PhysRegs, isa.NumRegs)
	}
	s.intDivFree = make([]int64, st.LongALUUnits)
	s.fpDivFree = make([]int64, st.FPUnits)
	s.intDivLast = make([]int64, st.LongALUUnits)
	s.fpDivLast = make([]int64, st.FPUnits)
	for i := range s.intDivLast {
		s.intDivLast[i] = trace.None
	}
	for i := range s.fpDivLast {
		s.fpDivLast[i] = trace.None
	}
	s.divBlocked = make([]bool, n)
	return nil
}

// Run simulates the µop stream to completion and returns the dynamic trace.
func (s *Sim) Run(uops []isa.MicroOp) (*trace.Trace, error) {
	if len(uops) == 0 {
		return &trace.Trace{}, nil
	}
	prep := s.tracer.StartChild(s.traceParent, obs.CatCPU, "prepare")
	prep.SetArg("uops", int64(len(uops)))
	err := s.prepare(uops)
	prep.End()
	if err != nil {
		return nil, err
	}
	sim := s.tracer.StartChild(s.traceParent, obs.CatCPU, "simulate")
	defer sim.End()
	n := len(uops)
	// Generous deadlock guard: no µop should take more than this many
	// cycles on average even in pathological memory-bound configurations.
	maxCycles := int64(n)*1024 + 1<<20
	var c int64
	for s.nextCommit < n {
		s.dispatch(c)
		s.fetch(c, uops)
		s.rename(c)
		s.issue(c)
		s.commit(c)
		s.issuedLastCycle, s.issuedThisCycle = s.issuedThisCycle, s.issuedLastCycle[:0]
		c++
		if c > maxCycles {
			return nil, fmt.Errorf("cpu: no forward progress after %d cycles (committed %d/%d µops)",
				c, s.nextCommit, n)
		}
	}
	sim.SetArg("cycles", c)
	s.stats.Cycles = s.recs[n-1].T[trace.SCommit]
	s.stats.MicroOps = n
	s.stats.IServed = s.hier.IServed
	s.stats.DServed = s.hier.DServed
	s.stats.ITLBMisses = s.hier.ITLBs.Misses
	s.stats.DTLBMisses = s.hier.DTLBs.Misses
	t := &trace.Trace{Records: s.recs, Cycles: s.stats.Cycles, Mispredicts: s.stats.Mispredicts}
	return t, nil
}

// Stats returns the run summary; valid after Run.
func (s *Sim) Stats() Stats { return s.stats }

// WarmUp functionally streams µops through the caches, TLBs, branch
// predictor and BTB without timing them, so that a subsequent Run measures
// steady-state behaviour instead of compulsory misses (the functional
// warming of SMARTS-style sampling). Counters are reset afterwards.
func (s *Sim) WarmUp(uops []isa.MicroOp) {
	sp := s.tracer.StartChild(s.traceParent, obs.CatCPU, "warmup")
	sp.SetArg("uops", int64(len(uops)))
	defer sp.End()
	st := &s.cfg.Structure
	lineMask := ^uint64(st.LineSize - 1)
	var lastLine uint64 = ^uint64(0)
	for i := range uops {
		u := &uops[i]
		if line := u.PC & lineMask; line != lastLine {
			s.hier.TranslateI(u.PC)
			s.hier.AccessI(u.PC)
			lastLine = line
		}
		if u.Class.IsMem() {
			s.hier.TranslateD(u.Addr)
			s.hier.AccessD(u.Addr)
		}
		if u.Class == isa.Branch {
			s.predictBranch(u)
		}
	}
	s.resetWarmCounters()
}

// WarmCode touches every line of the static code image so that compulsory
// instruction misses on rarely-taken blocks do not pollute the measured
// region (real workloads executed their code long before the sampled
// region).
func (s *Sim) WarmCode(pcs []uint64) {
	for _, pc := range pcs {
		s.hier.TranslateI(pc)
		s.hier.AccessI(pc)
	}
	s.resetWarmCounters()
}

// WarmData touches the given data-line addresses, pre-loading resident
// working sets the measured region would have re-touched long before.
func (s *Sim) WarmData(addrs []uint64) {
	for _, a := range addrs {
		s.hier.TranslateD(a)
		s.hier.AccessD(a)
	}
	s.resetWarmCounters()
}

func (s *Sim) resetWarmCounters() {
	s.hier.IServed = [mem.NumLevels]uint64{}
	s.hier.DServed = [mem.NumLevels]uint64{}
	s.hier.L1I.Hits, s.hier.L1I.Misses = 0, 0
	s.hier.L1D.Hits, s.hier.L1D.Misses = 0, 0
	s.hier.L2.Hits, s.hier.L2.Misses = 0, 0
	s.hier.ITLBs.Hits, s.hier.ITLBs.Misses = 0, 0
	s.hier.DTLBs.Hits, s.hier.DTLBs.Misses = 0, 0
	s.btb.Hits, s.btb.Misses = 0, 0
}

func (s *Sim) lineOf(pc uint64) uint64 {
	return pc &^ uint64(s.cfg.Structure.LineSize-1)
}

// fetch models the front end: per-line ITLB and instruction-cache accesses,
// fetch-buffer entry at fetch-width per cycle, branch prediction at fetch
// and the redirect stall after a mispredicted branch.
func (s *Sim) fetch(c int64, uops []isa.MicroOp) {
	st := &s.cfg.Structure
	if s.blockedOn != trace.None {
		b := &s.recs[s.blockedOn]
		if !s.issued[s.blockedOn] {
			return // branch not even issued; resolution time unknown
		}
		resume := b.T[trace.SComplete] + s.lat(stacks.Branch)
		if c < resume {
			return
		}
		s.blockedOn = trace.None
	}
	slots := 0
	for slots < st.FetchWidth && s.nextFetch < len(uops) && s.fbOccupancy < st.FetchBufSize {
		i := s.nextFetch
		u := &uops[i]
		line := s.lineOf(u.PC)
		if !s.haveLine || line != s.accessLine {
			// Start the line access. The leader's fetch timestamp is the
			// access start; ITLB and cache penalties delay line arrival.
			r := &s.recs[i]
			r.T[trace.SFetch] = c
			r.NewFetchLine = true
			pen := int64(0)
			if !s.hier.TranslateI(u.PC) {
				r.ITLBMiss = true
				pen += s.lat(stacks.ITLB)
			}
			lvl := s.hier.AccessI(u.PC)
			r.FetchLevel = lvl
			// L1 hits are pipelined and hidden in the front-end depth
			// (Table I: the I$ access edge is 0 on a hit); only misses
			// stall the fetch stream.
			if lvl != mem.LvlL1 {
				pen += s.levelLatI(lvl)
			}
			s.accessLine = line
			s.accessReady = c + pen
			s.haveLine = true
			if s.accessReady > c {
				return // line arrives in a later cycle
			}
		}
		if c < s.accessReady {
			return
		}
		// The µop enters the fetch buffer this cycle.
		if !s.recs[i].NewFetchLine {
			s.recs[i].T[trace.SFetch] = c
		}
		s.bufEnter[i] = c
		s.fbOccupancy++
		s.nextFetch++
		slots++
		if u.Class == isa.Branch {
			if s.predictBranch(u) {
				s.recs[i].Mispredicted = true
				s.stats.Mispredicts++
				s.blockedOn = int64(i)
				return
			}
		}
	}
}

// predictBranch consults the direction predictor and BTB, trains them with
// the actual outcome, and reports whether the front end mispredicted.
func (s *Sim) predictBranch(u *isa.MicroOp) bool {
	dir := s.pred.Predict(u.PC)
	s.pred.Update(u.PC, u.Taken)
	mis := dir != u.Taken
	if u.Taken {
		tgt, ok := s.btb.Lookup(u.PC)
		if !ok || tgt != u.Target {
			mis = true
		}
		s.btb.Update(u.PC, u.Target)
	}
	return mis
}

// rename allocates ROB entries and physical registers in order, at rename
// width per cycle. The decode depth between fetch-buffer entry and rename is
// FrontendDepth plus the (pipelined) L1 instruction-cache hit latency, so
// the L1I latency knob shapes the refill cost after redirects without
// throttling steady-state fetch throughput.
func (s *Sim) rename(c int64) {
	st := &s.cfg.Structure
	for slots := 0; slots < st.RenameWidth; slots++ {
		i := s.nextRename
		if i >= s.nextFetch || s.bufEnter[i] < 0 {
			return
		}
		if c < s.bufEnter[i]+int64(st.FrontendDepth)+s.lat(stacks.L1I) {
			return
		}
		// Finite reorder buffer: the µop ROBSize earlier must have
		// committed in a previous cycle.
		if rob := i - st.ROBSize; rob >= 0 {
			if s.nextCommit <= rob || s.recs[rob].T[trace.SCommit] >= c {
				return
			}
		}
		r := &s.recs[i]
		if destOf(r.Class, r) {
			if s.freeRegs == 0 {
				s.regStalled = true
				return
			}
			s.freeRegs--
			var tok regToken
			tok.freedBy = trace.None
			if len(s.regFreeList) > 0 {
				tok = s.regFreeList[0]
				s.regFreeList = s.regFreeList[1:]
			}
			// Record the provider only when the µop actually waited for the
			// register: the edge exists to explain a stall.
			if s.regStalled {
				r.RegFreeBy = tok.freedBy
				s.regStalled = false
			}
		}
		r.T[trace.SRename] = c
		s.fbOccupancy--
		s.nextRename++
	}
}

// destOf reports whether the µop allocates a new physical register. The
// record does not carry the architectural destination, so this mirrors the
// trace-construction rule: loads and compute µops produce values; stores and
// branches do not.
func destOf(c isa.OpClass, _ *trace.Record) bool {
	return c != isa.Store && c != isa.Branch
}

// dispatch moves renamed µops into the issue queue (and LSQ for memory
// ops) in order, at dispatch width per cycle, one cycle after rename.
func (s *Sim) dispatch(c int64) {
	st := &s.cfg.Structure
	for slots := 0; slots < st.DispatchWidth; slots++ {
		i := s.nextDispatch
		if i >= s.nextRename {
			return
		}
		r := &s.recs[i]
		if c < r.T[trace.SRename]+1 {
			return
		}
		if len(s.iq) >= st.IssueQSize {
			s.iqStalled = true
			return
		}
		if r.Class.IsMem() && s.lsqUsed >= st.LSQSize {
			return
		}
		if s.iqStalled {
			// The µop waited on a full issue queue; record which issue
			// freed its slot, preferring instructions that waited on an
			// optimizable long-latency producer (paper Section IV-C,
			// "modeling the issue dynamics").
			r.IQFreeBy = s.pickIQFreer()
			s.iqStalled = false
		}
		r.T[trace.SDispatch] = c
		s.iq = append(s.iq, i)
		if r.Class.IsMem() {
			s.lsqUsed++
		}
		s.nextDispatch++
	}
}

// pickIQFreer chooses, among the µops issued last cycle, the one whose
// issue should carry the issue-dependency edge: prefer µops that consumed
// the result of an optimizable long-latency instruction (loads, FP and long
// integer ops), so that latency changes to those producers move the whole
// dispatch chain, as the paper's graph perturbation intends.
func (s *Sim) pickIQFreer() int64 {
	best := trace.None
	bestRank := -1
	for _, j := range s.issuedLastCycle {
		rank := 0
		r := &s.recs[j]
		for _, d := range [...]int64{r.SrcDep1, r.SrcDep2, r.AddrDep} {
			if d == trace.None {
				continue
			}
			switch s.recs[d].Class {
			case isa.Load:
				rank = 3
			case isa.FpDiv, isa.IntDiv:
				if rank < 2 {
					rank = 2
				}
			case isa.FpAdd, isa.FpMul, isa.IntMul:
				if rank < 1 {
					rank = 1
				}
			}
		}
		if rank > bestRank {
			bestRank = rank
			best = int64(j)
		}
	}
	return best
}

// ready reports whether the µop's operands are available at cycle c, and
// computes the memory address pipeline lazily.
func (s *Sim) ready(i int, c int64) bool {
	r := &s.recs[i]
	depDone := func(d int64) bool {
		return d == trace.None || (s.issued[d] && s.recs[d].T[trace.SComplete] <= c)
	}
	if r.Class.IsMem() {
		if s.addrDone[i] < 0 {
			if !depDone(r.AddrDep) {
				return false
			}
			start := r.T[trace.SDispatch] + 1
			if r.AddrDep != trace.None {
				if p := s.recs[r.AddrDep].T[trace.SComplete]; p > start {
					start = p
				}
			}
			pen := int64(0)
			if !s.hier.TranslateD(r.Addr) {
				r.DTLBMiss = true
				pen = s.lat(stacks.DTLB)
			}
			s.addrDone[i] = start + s.lat(stacks.Agu) + pen
		}
		// Stores issue on address readiness alone: the data value merges at
		// retirement, which in-order commit already sequences after the
		// producer. Loads likewise only need their address.
		return s.addrDone[i] <= c
	}
	if !depDone(r.SrcDep1) || !depDone(r.SrcDep2) {
		return false
	}
	// Non-memory readiness also requires the dispatch-to-ready cycle.
	return c >= r.T[trace.SDispatch]+1
}

// readyCycleValue records the ready timestamp for the trace once known.
func (s *Sim) readyTimestamp(i int, c int64) int64 {
	r := &s.recs[i]
	t := r.T[trace.SDispatch] + 1
	if r.Class.IsMem() {
		if s.addrDone[i] > t {
			t = s.addrDone[i]
		}
		return t
	}
	for _, d := range [...]int64{r.SrcDep1, r.SrcDep2} {
		if d != trace.None {
			if p := s.recs[d].T[trace.SComplete]; p > t {
				t = p
			}
		}
	}
	return t
}

// issue selects ready µops from the issue queue in age order, bounded by
// issue width and functional-unit availability, and computes their
// completion times (running the data-cache access for memory ops).
func (s *Sim) issue(c int64) {
	st := &s.cfg.Structure
	width := st.IssueWidth
	var fuUsed [isa.NumFUClasses]int
	fuLimit := [isa.NumFUClasses]int{
		isa.FULoad:    st.LoadUnits,
		isa.FUStore:   st.StoreUnits,
		isa.FUFP:      st.FPUnits,
		isa.FUBaseALU: st.BaseALUUnits,
		isa.FULongALU: st.LongALUUnits,
	}
	issuedCount := 0
	kept := s.iq[:0]
	for _, i := range s.iq {
		if issuedCount >= width {
			kept = append(kept, i)
			continue
		}
		r := &s.recs[i]
		fu := r.Class.FU()
		if fuUsed[fu] >= fuLimit[fu] || !s.ready(i, c) {
			kept = append(kept, i)
			continue
		}
		if r.Class == isa.Load && !s.loadMayIssue(i, c) {
			kept = append(kept, i)
			continue
		}
		// Unpipelined dividers occupy a unit for their full latency.
		if r.Class == isa.IntDiv || r.Class == isa.FpDiv {
			pool, last := s.intDivFree, s.intDivLast
			if r.Class == isa.FpDiv {
				pool, last = s.fpDivFree, s.fpDivLast
			}
			unit := -1
			for u := range pool {
				if pool[u] <= c {
					unit = u
					break
				}
			}
			if unit < 0 {
				s.divBlocked[i] = true
				kept = append(kept, i)
				continue
			}
			// Record the divider occupancy edge when this divide had to
			// wait for the unit's previous occupant to finish.
			if s.divBlocked[i] && last[unit] != trace.None && last[unit] < int64(i) {
				r.FUFreeBy = last[unit]
			}
			pool[unit] = c + s.execLat(r.Class)
			last[unit] = int64(i)
		}
		if r.Class == isa.Load && s.mshrBlocked[i] &&
			s.lastExpiredSeq != trace.None && s.lastExpiredSeq < int64(i) {
			r.MSHRFreeBy = s.lastExpiredSeq
		}
		r.T[trace.SReady] = s.readyTimestamp(i, c)
		r.T[trace.SIssue] = c
		r.T[trace.SComplete] = s.complete(i, c)
		s.issued[i] = true
		s.issuedThisCycle = append(s.issuedThisCycle, i)
		fuUsed[fu]++
		issuedCount++
		if r.Class == isa.Store {
			s.markStoreIssued(i)
		}
	}
	s.iq = kept
}

// loadMayIssue enforces the address-dependency constraint (every load
// executes no earlier than all preceding stores) and MSHR availability.
func (s *Sim) loadMayIssue(i int, c int64) bool {
	if ps := s.prevStore[i]; ps != trace.None {
		if s.storePrefix < len(s.storeSeqs) && int64(s.storeSeqs[s.storePrefix]) <= ps {
			return false
		}
	}
	// MSHR check: a load that will miss needs a fill slot, but the outcome
	// is unknown until access; conservatively require a free slot. Expired
	// fills are reaped during the scan.
	active := 0
	for line, f := range s.fills {
		if f.complete > c {
			active++
		} else {
			// Tie-break equal completion times by µop sequence so the
			// recorded provider does not depend on map iteration order —
			// the trace must be bit-identical across runs.
			if f.complete > s.lastExpiredDone ||
				(f.complete == s.lastExpiredDone && int64(f.seq) > s.lastExpiredSeq) {
				s.lastExpiredDone = f.complete
				s.lastExpiredSeq = int64(f.seq)
			}
			delete(s.fills, line)
		}
	}
	if active >= s.cfg.Structure.MSHRs {
		s.mshrBlocked[i] = true
		return false
	}
	return true
}

func (s *Sim) markStoreIssued(i int) {
	lo, hi := 0, len(s.storeSeqs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.storeSeqs[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.storeIssued[lo] = true
	for s.storePrefix < len(s.storeIssued) && s.storeIssued[s.storePrefix] {
		s.storePrefix++
	}
}

// complete computes the completion cycle of a µop issuing at cycle c,
// performing the data-cache access for memory ops.
func (s *Sim) complete(i int, c int64) int64 {
	r := &s.recs[i]
	switch r.Class {
	case isa.Load:
		line := r.Addr &^ uint64(s.cfg.Structure.LineSize-1)
		if f, ok := s.fills[line]; ok && f.complete > c {
			// The line is already being fetched: merge into the fill.
			own := c + s.lat(stacks.L1D)
			if f.seq < r.Seq {
				// Forward merge: the dependence graph sees this as a
				// cache-line-sharing edge from the earlier load.
				r.DataLevel = mem.LvlL1
				r.ShareWith = int64(f.seq)
			} else {
				// A later load in program order started the fill first;
				// the graph cannot hold a backward edge, so this load is
				// accounted as its own access at the fill's level.
				r.DataLevel = f.level
			}
			if f.complete > own {
				return f.complete
			}
			return own
		}
		lvl := s.hier.AccessD(r.Addr)
		r.DataLevel = lvl
		done := c + s.levelLatD(lvl)
		if lvl != mem.LvlL1 {
			s.fills[line] = fill{complete: done, seq: r.Seq, level: lvl}
		}
		return done
	case isa.Store:
		lvl := s.hier.AccessD(r.Addr)
		r.DataLevel = lvl
		// The store buffer absorbs the write; latency is the buffer write.
		return c + s.execLat(isa.Store)
	default:
		return c + s.execLat(r.Class)
	}
}

// commit retires µops in order at commit width per cycle, one cycle after
// completion, with whole-macro-op atomicity: a macro-op's first µop cannot
// retire until every µop of the macro has completed.
func (s *Sim) commit(c int64) {
	st := &s.cfg.Structure
	for slots := 0; slots < st.CommitWidth; slots++ {
		i := s.nextCommit
		if i >= s.nextDispatch {
			return
		}
		r := &s.recs[i]
		if !s.issued[i] || r.T[trace.SComplete] >= c {
			return
		}
		if r.SoM {
			for j := i; j <= s.macroEnd[i]; j++ {
				if !s.issued[j] || s.recs[j].T[trace.SComplete] >= c {
					return
				}
			}
		}
		r.T[trace.SCommit] = c
		if destOf(r.Class, r) {
			s.freeRegs++
			s.regFreeList = append(s.regFreeList, regToken{freedBy: int64(i)})
		}
		if r.Class.IsMem() {
			s.lsqUsed--
		}
		s.nextCommit++
	}
}

// RunWarmed simulates uops on a fresh simulator under cfg after the warmup
// every measured region gets: the code and data lines pre-loaded, then the
// warm µops streamed functionally through caches, TLBs and predictors.
func RunWarmed(cfg *config.Config, codeLines, dataLines []uint64, warm, uops []isa.MicroOp) (*trace.Trace, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.WarmCode(codeLines)
	s.WarmData(dataLines)
	s.WarmUp(warm)
	return s.Run(uops)
}
