package experiments

import (
	"strings"
	"testing"

	"repro/internal/stacks"
)

func testRunner() *Runner { return NewRunner(12000) }

// TestFig11Headline checks the paper's central accuracy claim in shape:
// over the suite, RpStacks' mean prediction error is below both CP1's and
// FMT's, in the halved scenario and decisively in the aggressive one.
func TestFig11Headline(t *testing.T) {
	r := testRunner()
	a, err := r.Fig11("a", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", a)
	b, err := r.Fig11("b", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", b)
	for _, res := range []*Fig11Result{a, b} {
		rp, cp, fm := res.Means()
		if rp >= cp {
			t.Errorf("fig11%s: RpStacks mean error %.2f%% not below CP1 %.2f%%", res.Label, rp, cp)
		}
		if rp >= fm {
			t.Errorf("fig11%s: RpStacks mean error %.2f%% not below FMT %.2f%%", res.Label, rp, fm)
		}
	}
}

// TestFig3FMTBlindToOverlap checks the crafted-overlap demonstration: FMT
// charges nothing to the FP divides hidden under memory misses, while
// RpStacks sees them.
func TestFig3FMTBlindToOverlap(t *testing.T) {
	r := testRunner()
	f, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if got := f.FmtStack.Counts[stacks.FpDiv]; got != 0 {
		t.Errorf("FMT charged %.0f FpDiv occurrences; pipeline-stall analysis should be blind to them", got)
	}
	if !hasPath(f.RpStacks, stacks.FpDiv) {
		t.Errorf("RpStacks lost the FP-divide path entirely")
	}
}

// TestFig4CriticalPathSwitch checks that after halving the memory latency
// the ex-critical-path prediction degrades while RpStacks stays accurate.
func TestFig4CriticalPathSwitch(t *testing.T) {
	r := testRunner()
	f, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if f.RpErr > 10 {
		t.Errorf("RpStacks error %.1f%% too large after the critical-path switch", f.RpErr)
	}
	if f.Cp1Err < f.RpErr {
		t.Errorf("CP1 error %.1f%% unexpectedly below RpStacks %.1f%%", f.Cp1Err, f.RpErr)
	}
}

// TestRegistryRuns smoke-runs the cheap experiments end to end.
func TestRegistryRuns(t *testing.T) {
	r := testRunner()
	for _, id := range []string{"fig3", "fig4", "fig5"} {
		d, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out.String(), "Figure") {
			t.Errorf("%s: output does not mention its figure:\n%s", id, out)
		}
	}
}

// hasPath reports whether any of the path stacks carries the event kind.
func hasPath(rp []stacks.Stack, e stacks.Event) bool {
	for i := range rp {
		if rp[i].Counts[e] > 0 {
			return true
		}
	}
	return false
}
