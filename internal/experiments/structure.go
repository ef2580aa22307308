package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/stacks"
	"repro/internal/stats"
)

// PredictorRow is one branch-predictor design's outcome.
type PredictorRow struct {
	Predictor   string
	Mispredicts uint64
	CPI         float64
	BranchShare float64 // Branch component of the RpStacks decomposition (cycles/µop)
	// RpErr is the RpStacks prediction error when the misprediction
	// penalty (front-end refill) is halved under this predictor's own
	// stacks — each structure needs its own stack set (Section IV-D).
	RpErr float64
}

// PredictorStudyResult reproduces the paper's Section IV-D point: the branch
// predictor is a structure-domain choice, so each predictor design gets its
// own dependence graph and RpStacks; within each structure, the
// misprediction *penalty* remains a latency knob the stacks predict.
type PredictorStudyResult struct {
	App  string
	Rows []PredictorRow
}

// PredictorStudy runs one workload across predictor structures. Each
// structure is simulated and analyzed independently; the per-structure
// stacks then predict a halved redirect penalty.
func (r *Runner) PredictorStudy(app string) (*PredictorStudyResult, error) {
	res := &PredictorStudyResult{App: app}
	for _, pred := range []string{"taken", "bimodal", "gshare", "tournament"} {
		sub := NewRunner(r.MicroOps)
		sub.Seed = r.Seed
		sub.Opts = r.Opts
		sub.Cfg = r.Cfg.Clone()
		sub.Cfg.Structure.Predictor = pred
		a, err := sub.App(app)
		if err != nil {
			return nil, err
		}
		rep := a.Analysis.Representative(&sub.Cfg.Lat)
		pen := rep.Penalties(&sub.Cfg.Lat)
		l := sub.Cfg.Lat.Scale(stacks.Branch, 0.5)
		truth, err := sub.Truth(a, &l)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PredictorRow{
			Predictor:   pred,
			Mispredicts: a.Trace.Mispredicts,
			CPI:         a.Trace.CPI(),
			BranchShare: pen[stacks.Branch] / float64(len(a.Trace.Records)),
			RpErr:       stats.AbsPctErr(a.Analysis.Predict(&l), truth),
		})
	}
	return res, nil
}

// String renders the study.
func (p *PredictorStudyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-D: branch predictor structure study (%s)\n", p.App)
	fmt.Fprintf(&b, "(one dependence graph + RpStacks set per predictor design)\n\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "predictor\tmispredicts\tCPI\tBranch cyc/µop\tRp err% (penalty halved)")
	for _, row := range p.Rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.2f\n",
			row.Predictor, row.Mispredicts, row.CPI, row.BranchShare, row.RpErr)
	}
	w.Flush()
	fmt.Fprintf(&b, "\nBetter predictors shrink both the misprediction count and the Branch\n")
	fmt.Fprintf(&b, "component; within each structure the stacks still predict penalty changes.\n")
	return b.String()
}
