// Package audit implements shadow-sampling accuracy auditing for the sweep
// engines: during (strictly: immediately after) a graph- or RpStacks-engine
// sweep it deterministically samples a handful of design points, re-derives
// their ground truth under a bounded concurrency/time budget, and scores the
// sweep's predictions — per-point CPI error plus a per-event-class
// stall-stack divergence breakdown that says *which* penalty class the
// prediction got wrong.
//
// The paper's headline claim is accuracy against re-simulation; this package
// turns that offline evaluation into a runtime signal. Sampling is seeded
// from the sweep fingerprint (dse.Report.Fingerprint), so the audited point
// set is reproducible across processes and stable across checkpoint resumes:
// the fingerprint covers the engine, its prepared inputs and the point list,
// not the execution schedule.
//
// Two oracles are provided. SimOracle re-runs the internal/cpu ground-truth
// simulator — the paper's accuracy definition, with a genuine (small) model
// residual for the graph and RpStacks engines. GraphOracle re-evaluates the
// dependence-graph model instead: a model-exact reference against which a
// lossless analysis (core.Options.DisableMerge) must score exactly zero
// error, which is what the CI audit smoke asserts.
package audit

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/stacks"
)

// Class buckets the stall-event taxonomy into the four penalty families the
// divergence breakdown reports on.
type Class int

const (
	// ICache covers instruction-side memory penalties: L1I, L2I, MemI, ITLB.
	ICache Class = iota
	// DCache covers data-side memory penalties: L1D, L2D, MemD, DTLB.
	DCache
	// Branch covers misprediction redirect and refill penalties.
	Branch
	// Resource covers everything else: base pipeline advance, address
	// generation, the store buffer and the execution units.
	Resource

	NumClasses
)

var classNames = [NumClasses]string{
	ICache:   "icache",
	DCache:   "dcache",
	Branch:   "branch",
	Resource: "resource",
}

func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ClassNames returns the class labels in render order, for metric rows.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for i := range classNames {
		out[i] = classNames[i]
	}
	return out
}

// ClassOf maps a stall event to its penalty class.
func ClassOf(e stacks.Event) Class {
	switch e {
	case stacks.L1I, stacks.L2I, stacks.MemI, stacks.ITLB:
		return ICache
	case stacks.L1D, stacks.L2D, stacks.MemD, stacks.DTLB:
		return DCache
	case stacks.Branch:
		return Branch
	default:
		return Resource
	}
}

// classPenalties folds a stack's per-event penalty decomposition into the
// four classes.
func classPenalties(st *stacks.Stack, l *stacks.Latencies) [NumClasses]float64 {
	pen := st.Penalties(l)
	var out [NumClasses]float64
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		out[ClassOf(e)] += pen[e]
	}
	return out
}

// Oracle produces the ground truth of one design point: the reference cycle
// count and a stall-event decomposition comparable to the engines'
// prediction stacks. Truth may be called concurrently from audit workers.
type Oracle interface {
	Truth(ctx context.Context, l stacks.Latencies) (cycles float64, st stacks.Stack, err error)
}

// SimOracle is the paper's ground truth: re-run the cycle-accurate
// internal/cpu simulator at the design point. When the warm inputs are set,
// the re-simulation replays the same functional warmup as the engines'
// baseline trace; with them nil it measures the stream cold, matching what
// dse.SimEngine runs per point. The decomposition is the critical-path
// stack of the re-simulated trace's dependence graph — model-attributed,
// but over the *measured* execution.
type SimOracle struct {
	Cfg                  *config.Config
	CodeLines, DataLines []uint64
	Warm                 []isa.MicroOp
	UOps                 []isa.MicroOp
}

func (o *SimOracle) Truth(ctx context.Context, l stacks.Latencies) (float64, stacks.Stack, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, stacks.Stack{}, err
		}
	}
	cfg := o.Cfg.Clone()
	cfg.Lat = l
	tr, err := cpu.RunWarmed(cfg, o.CodeLines, o.DataLines, o.Warm, o.UOps)
	if err != nil {
		return 0, stacks.Stack{}, fmt.Errorf("audit: re-simulating ground truth: %w", err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		return 0, stacks.Stack{}, fmt.Errorf("audit: decomposing ground truth: %w", err)
	}
	_, st := g.CriticalPath(&l)
	return float64(tr.Cycles), st, nil
}

// GraphOracle re-evaluates a prebuilt dependence graph instead of the
// simulator: a model-exact reference that isolates the RpStacks reduction
// from the graph model's own residual. A lossless analysis must match it
// bit-for-bit at integer latencies. Each Truth call allocates a fresh
// evaluator, so the oracle is safely shared across audit workers.
type GraphOracle struct {
	Graph *depgraph.Graph
}

func (o *GraphOracle) Truth(ctx context.Context, l stacks.Latencies) (float64, stacks.Stack, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, stacks.Stack{}, err
		}
	}
	cycles, st := o.Graph.CriticalPath(&l)
	return float64(cycles), st, nil
}

// DefaultDriftPct is the per-point CPI error threshold (percent) above which
// a point counts as drift when Options.DriftPct is zero. The paper reports
// worst-case RpStacks errors of a few percent; sustained errors beyond this
// mean the predictor no longer represents the machine.
const DefaultDriftPct = 5.0

// defaultWorstK bounds how many worst points a report retains.
const defaultWorstK = 3

// Options configures one audit run. The zero value audits nothing
// (Fraction 0).
type Options struct {
	// Fraction is the share of the sweep's design points to audit,
	// in (0, 1]; K = ceil(Fraction · points). Zero or negative disables
	// the audit (Run returns nil, nil).
	Fraction float64
	// Seed is mixed into the fingerprint-derived sampling stream, so two
	// audits of the same sweep can choose disjoint-ish samples on purpose.
	Seed uint64
	// MaxPoints caps the sampled point count after Fraction is applied
	// (0: no cap). It bounds work up front; points it cuts are not counted
	// as skipped.
	MaxPoints int
	// Budget is the wall-clock budget for ground-truth runs. Once it is
	// spent, remaining sampled points are counted in Report.Skipped instead
	// of being evaluated (0: no time budget).
	Budget time.Duration
	// Parallelism is the number of concurrent oracle runs (<=1: serial).
	Parallelism int
	// DriftPct is the per-point CPI error percentage above which the point
	// counts as drift (0: DefaultDriftPct).
	DriftPct float64
	// WorstK bounds the worst points kept in the report (0: 3).
	WorstK int
	// Logger receives a warning per drifting point (nil: discard).
	Logger *slog.Logger
	// JobID tags drift warnings with the owning job (optional).
	JobID string
	// Context cancels the audit between points: remaining sampled points
	// are counted as skipped and Run returns the partial report without an
	// error, mirroring the budget semantics.
	Context context.Context
	// Tracer, when non-nil, records one audit root span plus one child per
	// ground-truth run (TID = audit worker).
	Tracer *obs.Tracer
	// TraceParent is the span the audit root attaches under.
	TraceParent uint64
	// OnPoint, when non-nil, receives every audited point as it completes —
	// the service feeds /metrics from it. It is called from audit workers
	// and must be goroutine-safe.
	OnPoint func(PointAudit)
}

// Sample deterministically selects the audited point indices: a shuffle of
// [0, n) seeded by SHA-256(fingerprint ‖ seed), truncated to
// ceil(fraction·n), capped at maxPoints, and returned sorted. The same
// (fingerprint, seed) pair always selects the same set — across processes
// and across checkpoint resumes, because the fingerprint covers the sweep's
// inputs, not its schedule.
func Sample(fingerprint []byte, seed uint64, n int, fraction float64, maxPoints int) []int {
	if n <= 0 || fraction <= 0 {
		return nil
	}
	k := int(math.Ceil(fraction * float64(n)))
	if k > n {
		k = n
	}
	if maxPoints > 0 && k > maxPoints {
		k = maxPoints
	}
	h := sha256.New()
	h.Write(fingerprint)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	sum := h.Sum(nil)
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// PointAudit is the scored outcome of one audited design point.
type PointAudit struct {
	// Index is the design-point index in the sweep's point list.
	Index int `json:"index"`
	// Latencies is the full latency assignment of the point.
	Latencies [stacks.NumEvents]float64 `json:"latencies"`
	// Predicted and Truth are the engine's and the oracle's cycle counts.
	Predicted float64 `json:"predicted_cycles"`
	Truth     float64 `json:"truth_cycles"`
	// ErrorPct is 100·|Predicted−Truth|/Truth.
	ErrorPct float64 `json:"error_pct"`
	// Divergence is the per-class stall-stack disagreement,
	// 100·|predicted class penalty − truth class penalty|/Truth, present
	// when the engine supplied a decomposition hook.
	Divergence map[string]float64 `json:"divergence_pct,omitempty"`
	// WorstClass names the class with the largest divergence.
	WorstClass string `json:"worst_class,omitempty"`
	// Drift marks the point as exceeding the drift threshold.
	Drift bool `json:"drift,omitempty"`
}

// Config renders the point's latency assignment as event=value pairs, the
// form carried by the worst-point metric exemplar.
func (p *PointAudit) Config() string {
	parts := make([]string, 0, stacks.NumEvents)
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		parts = append(parts, fmt.Sprintf("%s=%g", e, p.Latencies[e]))
	}
	return strings.Join(parts, " ")
}

// ClassStats aggregates one penalty class across the audited points.
type ClassStats struct {
	Class string `json:"class"`
	// DivergenceCycles is the summed |predicted − truth| class penalty.
	DivergenceCycles float64 `json:"divergence_cycles"`
	// MeanPct and MaxPct are the per-point divergence percentages of the
	// class, averaged and maximized over the audited points.
	MeanPct float64 `json:"mean_pct"`
	MaxPct  float64 `json:"max_pct"`
}

// Report is the structured outcome of one audit run: the JSON persisted
// through internal/store, served by rpserved's /debug/audit and summarized
// by rpexplore.
type Report struct {
	Method      string  `json:"method"`
	Fingerprint string  `json:"fingerprint"`
	Seed        uint64  `json:"seed"`
	Fraction    float64 `json:"fraction"`
	DriftPct    float64 `json:"drift_threshold_pct"`
	GridPoints  int     `json:"grid_points"`
	// Sampled is the deterministic sample size; Audited of those were
	// ground-truthed, Skipped were abandoned to the time budget or
	// cancellation.
	Sampled int   `json:"sampled"`
	Audited int   `json:"audited"`
	Skipped int   `json:"skipped_budget"`
	Indices []int `json:"indices"`
	// Drifted counts audited points whose error exceeded the threshold.
	Drifted int `json:"drifted"`
	// MaxErrorPct, GeomeanErrorPct and MeanErrorPct summarize the per-point
	// CPI errors. The geomean is exp(mean(log1p(err)))−1, which tolerates
	// exact-zero points.
	MaxErrorPct     float64      `json:"max_error_pct"`
	GeomeanErrorPct float64      `json:"geomean_error_pct"`
	MeanErrorPct    float64      `json:"mean_error_pct"`
	Classes         []ClassStats `json:"classes,omitempty"`
	Worst           []PointAudit `json:"worst,omitempty"`
	// Status is "ok", or "drift" once any audited point exceeded the
	// threshold — the value the owning job's audit status flips to.
	Status string  `json:"status"`
	WallMS float64 `json:"wall_ms"`
}

// Summary renders the one-line form rpexplore prints.
func (r *Report) Summary() string {
	s := fmt.Sprintf("audit: %d/%d points audited (method %s, seed %d), max error %.4f%%, geomean %.4f%%",
		r.Audited, r.GridPoints, r.Method, r.Seed, r.MaxErrorPct, r.GeomeanErrorPct)
	if r.Skipped > 0 {
		s += fmt.Sprintf(", %d skipped by budget", r.Skipped)
	}
	if r.Drifted > 0 {
		s += fmt.Sprintf(", DRIFT on %d points (threshold %.2f%%)", r.Drifted, r.DriftPct)
	}
	return s
}

// Run audits a finished sweep: it samples the report's design points from
// the sweep fingerprint, re-derives each sampled point's ground truth
// through the oracle under the configured budget, and scores the sweep's
// predictions. decompose, when non-nil, is the sweep engine's predicted
// stall stack at a point (dse.Engine.Decompose), for the per-class
// divergence breakdown. The sweep report is only read — an audited sweep's
// Results are bit-identical to an unaudited one's.
//
// Run returns (nil, nil) when opts.Fraction is zero or negative. It errors
// when the sweep carries no fingerprint (run it with
// ExploreOptions.NeedFingerprint or a Checkpoint) or when the oracle fails;
// budget exhaustion and context cancellation are not errors — remaining
// points are reported as Skipped.
func Run(sweep *dse.Report, oracle Oracle, decompose func(*stacks.Latencies) stacks.Stack, opts Options) (*Report, error) {
	if opts.Fraction <= 0 {
		return nil, nil
	}
	if len(sweep.Fingerprint) == 0 {
		return nil, fmt.Errorf("audit: sweep has no fingerprint; run it with dse.ExploreOptions.NeedFingerprint")
	}
	if oracle == nil {
		return nil, fmt.Errorf("audit: nil oracle")
	}
	driftPct := opts.DriftPct
	if driftPct <= 0 {
		driftPct = DefaultDriftPct
	}
	worstK := opts.WorstK
	if worstK <= 0 {
		worstK = defaultWorstK
	}

	indices := Sample(sweep.Fingerprint, opts.Seed, len(sweep.Results), opts.Fraction, opts.MaxPoints)
	rep := &Report{
		Method:      sweep.Method,
		Fingerprint: fmt.Sprintf("%x", sweep.Fingerprint),
		Seed:        opts.Seed,
		Fraction:    opts.Fraction,
		DriftPct:    driftPct,
		GridPoints:  len(sweep.Results),
		Sampled:     len(indices),
		Indices:     indices,
		Status:      "ok",
	}

	root := opts.Tracer.StartChild(opts.TraceParent, obs.CatAudit, obs.NameAudit)
	root.SetDetail(sweep.Method)
	root.SetArg(obs.ArgPoints, int64(len(indices)))
	defer root.End()

	start := time.Now()
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	type scored struct {
		point PointAudit
		div   [NumClasses]float64 // divergence in cycles, for class totals
	}
	var (
		mu      sync.Mutex
		points  []scored
		skipped int
		runErr  error
	)
	next := make(chan int)
	go func() {
		defer close(next)
		for _, i := range indices {
			next <- i
		}
	}()

	overBudget := func() bool {
		if opts.Context != nil && opts.Context.Err() != nil {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	workers := opts.Parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(indices) && len(indices) > 0 {
		workers = len(indices)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				failed := runErr != nil
				mu.Unlock()
				if failed || overBudget() {
					mu.Lock()
					skipped++
					mu.Unlock()
					continue
				}
				lat := sweep.Point(i)
				sp := opts.Tracer.StartChild(root.ID(), obs.CatAudit, obs.NameTruth)
				sp.SetTID(worker)
				truth, truthStack, err := oracle.Truth(opts.Context, lat)
				sp.End()
				if err != nil {
					mu.Lock()
					if opts.Context != nil && opts.Context.Err() != nil {
						skipped++ // cancellation mid-oracle: budget semantics
					} else if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					continue
				}
				p := score(i, lat, sweep.Results[i].Cycles, truth, truthStack, decompose, driftPct)
				var div [NumClasses]float64
				if decompose != nil && truth > 0 {
					for c := Class(0); c < NumClasses; c++ {
						div[c] = p.Divergence[c.String()] / 100 * truth
					}
				}
				if p.Drift && opts.Logger != nil {
					attrs := []any{
						slog.Int("point", i),
						slog.Float64("error_pct", p.ErrorPct),
						slog.Float64("threshold_pct", driftPct),
						slog.String("config", p.Config()),
						slog.String("worst_class", p.WorstClass),
					}
					if opts.JobID != "" {
						attrs = append(attrs, slog.String("job_id", opts.JobID))
					}
					opts.Logger.Warn("audit drift: prediction error above threshold", attrs...)
				}
				if opts.OnPoint != nil {
					opts.OnPoint(p)
				}
				mu.Lock()
				points = append(points, scored{point: p, div: div})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	rep.Audited = len(points)
	rep.Skipped = skipped
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)

	// Aggregate deterministically: point order is the sampled index order,
	// regardless of worker interleaving.
	sort.Slice(points, func(a, b int) bool { return points[a].point.Index < points[b].point.Index })
	var classTotals [NumClasses]float64
	var classMax [NumClasses]float64
	var classSumPct [NumClasses]float64
	var sumPct, sumLog float64
	for _, s := range points {
		p := s.point
		if p.ErrorPct > rep.MaxErrorPct {
			rep.MaxErrorPct = p.ErrorPct
		}
		sumPct += p.ErrorPct
		sumLog += math.Log1p(p.ErrorPct)
		if p.Drift {
			rep.Drifted++
		}
		for c := Class(0); c < NumClasses; c++ {
			classTotals[c] += s.div[c]
			pct := p.Divergence[c.String()]
			classSumPct[c] += pct
			if pct > classMax[c] {
				classMax[c] = pct
			}
		}
	}
	if n := float64(len(points)); n > 0 {
		rep.MeanErrorPct = sumPct / n
		rep.GeomeanErrorPct = math.Expm1(sumLog / n)
		if decompose != nil {
			rep.Classes = make([]ClassStats, NumClasses)
			for c := Class(0); c < NumClasses; c++ {
				rep.Classes[c] = ClassStats{
					Class:            c.String(),
					DivergenceCycles: classTotals[c],
					MeanPct:          classSumPct[c] / n,
					MaxPct:           classMax[c],
				}
			}
		}
	}
	worst := make([]PointAudit, len(points))
	for i, s := range points {
		worst[i] = s.point
	}
	sort.SliceStable(worst, func(a, b int) bool { return worst[a].ErrorPct > worst[b].ErrorPct })
	if len(worst) > worstK {
		worst = worst[:worstK]
	}
	rep.Worst = worst
	if rep.Drifted > 0 {
		rep.Status = "drift"
	}
	return rep, nil
}

// score computes one audited point's error and divergence breakdown.
func score(idx int, lat stacks.Latencies, predicted, truth float64, truthStack stacks.Stack,
	decompose func(*stacks.Latencies) stacks.Stack, driftPct float64) PointAudit {
	p := PointAudit{
		Index:     idx,
		Latencies: lat,
		Predicted: predicted,
		Truth:     truth,
	}
	if truth > 0 {
		p.ErrorPct = 100 * math.Abs(predicted-truth) / truth
	} else if predicted != truth {
		p.ErrorPct = math.Inf(1)
	}
	p.Drift = p.ErrorPct > driftPct
	if decompose != nil && truth > 0 {
		predStack := decompose(&lat)
		predPen := classPenalties(&predStack, &lat)
		truthPen := classPenalties(&truthStack, &lat)
		p.Divergence = make(map[string]float64, NumClasses)
		worst, worstV := Resource, -1.0
		for c := Class(0); c < NumClasses; c++ {
			pct := 100 * math.Abs(predPen[c]-truthPen[c]) / truth
			p.Divergence[c.String()] = pct
			if pct > worstV {
				worst, worstV = c, pct
			}
		}
		p.WorstClass = worst.String()
	}
	return p
}
