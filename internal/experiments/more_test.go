package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFig1HiddenPenalty checks the quantitative Figure 1a demonstration:
// the actual saving from optimizing the exposed bottleneck is far below the
// apparent exposure, and the interaction cost is positive (parallel).
func TestFig1HiddenPenalty(t *testing.T) {
	r := testRunner()
	f, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if f.ActualSave >= f.ApparentSave {
		t.Fatalf("no hidden penalty: actual %.0f >= apparent %.0f", f.ActualSave, f.ApparentSave)
	}
	if f.Interaction <= 0 {
		t.Fatalf("overlapping chains must have positive interaction cost, got %d", f.Interaction)
	}
}

// TestSec4DPredictorStudy checks the structure-domain workflow: learned
// predictors beat static always-taken on a branchy workload, and the
// per-structure stacks keep predicting penalty changes accurately.
func TestSec4DPredictorStudy(t *testing.T) {
	r := testRunner()
	p, err := r.PredictorStudy("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", p)
	byName := map[string]PredictorRow{}
	for _, row := range p.Rows {
		byName[row.Predictor] = row
		if row.RpErr > 5 {
			t.Errorf("%s: RpStacks penalty prediction error %.2f%% too large", row.Predictor, row.RpErr)
		}
	}
	if byName["tournament"].Mispredicts >= byName["taken"].Mispredicts {
		t.Error("the tournament predictor should beat always-taken on sjeng")
	}
}

// TestFig5Shape checks the representative-stack panel renders sane content.
func TestFig5Shape(t *testing.T) {
	r := testRunner()
	f, err := r.Fig5("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PathStacks) == 0 || f.TotalStacks < len(f.PathStacks) {
		t.Fatal("no path stacks extracted")
	}
	// Stacks are sorted longest first.
	for i := 1; i < len(f.PathStacks); i++ {
		if f.PathStacks[i].Total(&f.Baseline) > f.PathStacks[i-1].Total(&f.Baseline) {
			t.Fatal("path stacks not sorted")
		}
	}
	if !strings.Contains(f.String(), "CPI") {
		t.Fatal("rendering lost the CPI lines")
	}
}

// TestFig6ScenarioAccuracy: in the gamess exploration scenario, RpStacks'
// worst error stays below FMT's worst error.
func TestFig6ScenarioAccuracy(t *testing.T) {
	r := testRunner()
	f, err := r.Fig6("416.gamess")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if f.Space < 500 {
		t.Fatalf("scenario space only %d points", f.Space)
	}
	var rpWorst, fmWorst float64
	for i := range f.Scenarios {
		rp, _, fm := f.Scenarios[i].Err()
		if rp > rpWorst {
			rpWorst = rp
		}
		if fm > fmWorst {
			fmWorst = fm
		}
	}
	if rpWorst >= fmWorst {
		t.Errorf("RpStacks worst %.2f%% not below FMT worst %.2f%%", rpWorst, fmWorst)
	}
}

// TestFig13Shape checks the exploration-overhead measurements are coherent.
func TestFig13Shape(t *testing.T) {
	r := testRunner()
	f, err := r.Fig13([]string{"416.gamess"})
	if err != nil {
		t.Fatal(err)
	}
	row := f.Rows[0]
	if row.RpPoint <= 0 || row.SimPoint <= 0 || row.Setup < row.SimPoint {
		t.Fatalf("incoherent timings: %+v", row)
	}
	if row.RpPoint >= row.SimPoint {
		t.Fatal("an RpStacks prediction must be cheaper than a simulation")
	}
	if row.Crossover <= 0 {
		t.Fatal("crossover must exist: predictions are cheaper per point")
	}
	if row.Speedup1k <= 1 {
		t.Fatalf("speedup at 1000 points %.2f must exceed 1", row.Speedup1k)
	}
}

// TestFig2Measured checks that measured host speeds appear alongside the
// quoted literature numbers.
func TestFig2Measured(t *testing.T) {
	r := testRunner()
	f, err := r.Fig2("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, row := range f.Rows {
		if row.Measured {
			measured++
			if row.MIPS <= 0 {
				t.Fatalf("%s: non-positive measured speed", row.Method)
			}
		}
	}
	if measured != 2 {
		t.Fatalf("%d measured rows, want 2", measured)
	}
	if speedup(f, 1000) <= speedup(f, 10) {
		t.Fatal("speedup must grow with the design-point count")
	}
}

// TestFig6cCoverage: within the same budget RpStacks covers vastly more
// latency points than per-point simulation.
func TestFig6cCoverage(t *testing.T) {
	r := testRunner()
	f, err := r.Fig6c("416.gamess", 250)
	if err != nil {
		t.Fatal(err)
	}
	simPts := f.Rows[0].Points
	rpPts := f.Rows[len(f.Rows)-1].Points
	if rpPts <= simPts {
		t.Fatalf("RpStacks covered %d points vs simulation's %d", rpPts, simPts)
	}
}

// speedup is simulation over RpStacks exploration time at n design points.
func speedup(f *Fig2Result, n int) float64 {
	rp := f.Setup + time.Duration(n)*f.RpPerPoint
	if rp <= 0 {
		return 0
	}
	return float64(time.Duration(n)*f.SimPerPoint) / float64(rp)
}
