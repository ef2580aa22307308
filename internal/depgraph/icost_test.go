package depgraph

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// TestInteractionCostSigns: overlapped penalties yield negative interaction
// cost; unrelated events yield (near-)zero.
func TestInteractionCostSigns(t *testing.T) {
	cfg := config.Baseline()
	// Parallel chains: memory chase ∥ FP divides (the Figure 1a shape).
	var uops []isa.MicroOp
	seq := uint64(0)
	add := func(u isa.MicroOp) {
		u.Seq, u.MacroSeq = seq, seq
		u.SoM, u.EoM = true, true
		u.PC = 0x400000
		seq++
		uops = append(uops, u)
	}
	addr := uint64(0x4000_0000)
	for i := 0; i < 30; i++ {
		add(isa.MicroOp{Class: isa.Load, Dest: 2, Src1: 2, Src2: isa.RegNone, Addr: addr})
		addr += 1 << 16
		for j := 0; j < 5; j++ {
			add(isa.MicroOp{Class: isa.FpDiv, Dest: isa.NumIntRegs, Src1: isa.NumIntRegs, Src2: isa.RegNone})
		}
	}
	tr := simTrace(t, cfg, uops)
	g, err := Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	// MemD and FpDiv overlap in parallel: optimizing both together buys
	// much more than the sum of optimizing each alone => icost positive.
	if ic := g.InteractionCost(&cfg.Lat, stacks.MemD, stacks.FpDiv); ic <= 0 {
		t.Fatalf("parallel chains must have positive interaction cost, got %d", ic)
	}
	// Two events absent from the trace interact not at all.
	if ic := g.InteractionCost(&cfg.Lat, stacks.IntMul, stacks.ITLB); ic != 0 {
		t.Fatalf("absent events interaction cost %d, want 0", ic)
	}
}
