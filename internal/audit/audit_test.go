package audit

import (
	"context"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/depgraph"
	"repro/internal/dse"
	"repro/internal/stacks"
	"repro/internal/workload"
)

// losslessFixture simulates a tiny workload window and builds the lossless
// analysis substrate: no merging, no path cap, one whole-trace segment. Path
// counts grow exponentially without merging, so exactness checks stay on a
// small window (as in core's and dse's lossless tests).
func losslessFixture(t *testing.T) (*config.Config, *depgraph.Graph, *core.Analysis, []stacks.Latencies) {
	t.Helper()
	cfg := config.Baseline()
	prof, ok := workload.ByName("456.hmmer")
	if !ok {
		t.Fatal("unknown workload 456.hmmer")
	}
	uops := workload.Stream(prof, 3, 60)
	s, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.DisableMerge = true
	opts.MaxStacks = 0
	opts.SegmentLength = len(tr.Records)
	a, err := core.Analyze(tr, &cfg.Structure, &cfg.Lat, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(tr, &cfg.Structure, 0, len(tr.Records))
	if err != nil {
		t.Fatal(err)
	}
	// Integer latency grid: integer axes keep both the graph evaluator's
	// per-edge int64 truncation and the stack dot product exact, so the
	// lossless reduction is bitwise.
	var pts []stacks.Latencies
	for _, l1d := range []float64{1, 2, 3, 4} {
		for _, fpAdd := range []float64{2, 4, 6} {
			l := cfg.Lat
			l[stacks.L1D] = l1d
			l[stacks.FpAdd] = fpAdd
			pts = append(pts, l)
		}
	}
	return cfg, g, a, pts
}

func TestSampleDeterministic(t *testing.T) {
	fp := []byte("sweep-fingerprint")
	a := Sample(fp, 42, 100, 0.1, 0)
	b := Sample(fp, 42, 100, 0.1, 0)
	if len(a) != 10 {
		t.Fatalf("sample size %d, want ceil(0.1*100) = 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same fingerprint and seed sampled different sets: %v vs %v", a, b)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("sample not sorted ascending: %v", a)
		}
	}
	seen := false
	for i, v := range Sample(fp, 43, 100, 0.1, 0) {
		if v != a[i] {
			seen = true
		}
	}
	if !seen {
		t.Error("seed 43 selected the same set as seed 42")
	}
	if c := Sample([]byte("other"), 42, 100, 0.1, 0); len(c) == len(a) {
		diff := false
		for i := range c {
			if c[i] != a[i] {
				diff = true
			}
		}
		if !diff {
			t.Error("different fingerprints selected the same set")
		}
	}
}

func TestSampleBounds(t *testing.T) {
	if got := Sample([]byte("fp"), 0, 0, 1, 0); got != nil {
		t.Errorf("empty sweep sampled %v", got)
	}
	if got := Sample([]byte("fp"), 0, 10, 0, 0); got != nil {
		t.Errorf("fraction 0 sampled %v", got)
	}
	full := Sample([]byte("fp"), 0, 10, 1, 0)
	if len(full) != 10 {
		t.Fatalf("fraction 1 sampled %d of 10", len(full))
	}
	for i, v := range full {
		if v != i {
			t.Fatalf("fraction 1 must select every index in order, got %v", full)
		}
	}
	if got := Sample([]byte("fp"), 0, 100, 1, 7); len(got) != 7 {
		t.Errorf("maxPoints 7 kept %d points", len(got))
	}
	// ceil: 3% of 10 points still audits one.
	if got := Sample([]byte("fp"), 0, 10, 0.03, 0); len(got) != 1 {
		t.Errorf("fraction 0.03 of 10 sampled %d, want 1", len(got))
	}
}

// TestLosslessAuditZeroError is the test-side of the CI audit smoke: a
// lossless RpStacks sweep audited against the graph oracle at integer
// latencies reports exactly zero maximum CPI error — and auditing leaves the
// sweep's results bit-identical to an unaudited run.
func TestLosslessAuditZeroError(t *testing.T) {
	_, g, a, pts := losslessFixture(t)

	plain, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	audited, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{Parallelism: 2, NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Fingerprint) != 0 {
		t.Error("fingerprint published without NeedFingerprint")
	}
	if len(audited.Fingerprint) == 0 {
		t.Fatal("NeedFingerprint sweep carries no fingerprint")
	}

	rep, err := Run(audited, &GraphOracle{Graph: g}, dse.RpStacksEngine(a).Decompose(), Options{
		Fraction:    1,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audited != len(pts) || rep.Skipped != 0 {
		t.Fatalf("audited %d skipped %d, want %d and 0", rep.Audited, rep.Skipped, len(pts))
	}
	if rep.MaxErrorPct != 0 {
		t.Errorf("lossless max error %g%%, want exactly 0", rep.MaxErrorPct)
	}
	if rep.Status != "ok" || rep.Drifted != 0 {
		t.Errorf("status %q drifted %d, want ok and 0", rep.Status, rep.Drifted)
	}

	// The audit only reads the sweep: point-for-point identical results.
	for i := range plain.Results {
		if plain.Point(i) != audited.Point(i) ||
			plain.Results[i].Cycles != audited.Results[i].Cycles {
			t.Fatalf("point %d differs between audited and unaudited sweeps", i)
		}
	}
}

// TestSampleStableAcrossResume pins the resume-stability claim: the
// fingerprint — and therefore the audited point set — is identical for a
// fresh sweep, a checkpointed sweep, and a sweep resumed from that
// checkpoint.
func TestSampleStableAcrossResume(t *testing.T) {
	_, _, a, pts := losslessFixture(t)
	dir := t.TempDir()

	fresh, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{
		Parallelism: 2, ChunkSize: 3, Checkpoint: &dse.Checkpoint{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{
		Parallelism: 2, ChunkSize: 3, Checkpoint: &dse.Checkpoint{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(pts) {
		t.Fatalf("second checkpointed run resumed %d of %d points", resumed.Resumed, len(pts))
	}
	if string(fresh.Fingerprint) != string(first.Fingerprint) ||
		string(first.Fingerprint) != string(resumed.Fingerprint) {
		t.Fatal("fingerprint differs across fresh, checkpointed and resumed sweeps")
	}
	sa := Sample(first.Fingerprint, 9, len(pts), 0.5, 0)
	sb := Sample(resumed.Fingerprint, 9, len(pts), 0.5, 0)
	if len(sa) != len(sb) {
		t.Fatalf("sample sizes differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("resume changed the audited set: %v vs %v", sa, sb)
		}
	}
}

// TestDegradedPredictorTripsDrift corrupts the predictor — every
// instruction-side memory count dropped from every representative stack (the
// dominant class in this window; the tiny fixture has no data-cache events on
// its critical path) — and checks the audit notices: drift trips, the report
// flips to "drift", and the divergence breakdown names the responsible class.
func TestDegradedPredictorTripsDrift(t *testing.T) {
	_, g, a, pts := losslessFixture(t)

	bad := &core.Analysis{
		Segments: make([]core.Segment, len(a.Segments)),
		Baseline: a.Baseline,
		MicroOps: a.MicroOps,
		Opts:     a.Opts,
	}
	for i, seg := range a.Segments {
		cp := seg
		cp.Stacks = make([]stacks.Stack, len(seg.Stacks))
		copy(cp.Stacks, seg.Stacks)
		for j := range cp.Stacks {
			for _, e := range []stacks.Event{stacks.L1I, stacks.L2I, stacks.MemI, stacks.ITLB} {
				cp.Stacks[j].Counts[e] = 0
			}
		}
		bad.Segments[i] = cp
	}

	rep0, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	sane, err := Run(rep0, &GraphOracle{Graph: g}, dse.RpStacksEngine(a).Decompose(), Options{Fraction: 1, DriftPct: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if sane.MaxErrorPct != 0 {
		t.Fatalf("healthy lossless predictor has error %g%%", sane.MaxErrorPct)
	}

	sweep, err := dse.Explore(dse.RpStacksEngine(bad), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	drifts := 0
	rep, err := Run(sweep, &GraphOracle{Graph: g}, dse.RpStacksEngine(bad).Decompose(), Options{
		Fraction: 1,
		DriftPct: 0.01,
		OnPoint:  func(p PointAudit) { drifts++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drifted == 0 || rep.Status != "drift" {
		t.Fatalf("degraded predictor not flagged: drifted %d status %q", rep.Drifted, rep.Status)
	}
	if drifts != rep.Audited {
		t.Errorf("OnPoint saw %d points, audited %d", drifts, rep.Audited)
	}
	if len(rep.Worst) == 0 || rep.Worst[0].WorstClass != ICache.String() {
		t.Fatalf("worst point blames %q, want icache", rep.Worst[0].WorstClass)
	}
	var worst ClassStats
	for _, cs := range rep.Classes {
		if cs.MaxPct > worst.MaxPct {
			worst = cs
		}
	}
	if worst.Class != ICache.String() {
		t.Errorf("largest class divergence is %q, want icache", worst.Class)
	}
}

// TestCanceledContextSkips checks the budget semantics of cancellation: a
// canceled context audits nothing and reports every sampled point as
// skipped, without an error.
func TestCanceledContextSkips(t *testing.T) {
	_, g, a, pts := losslessFixture(t)
	sweep, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(sweep, &GraphOracle{Graph: g}, nil, Options{
		Fraction: 1, Parallelism: 2, Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audited != 0 || rep.Skipped != len(pts) {
		t.Errorf("canceled audit: audited %d skipped %d, want 0 and %d", rep.Audited, rep.Skipped, len(pts))
	}
	if rep.Status != "ok" || rep.Drifted != 0 {
		t.Errorf("canceled audit status %q drifted %d", rep.Status, rep.Drifted)
	}
}

// TestBudgetSkips checks the time-budget path: a budget that is already
// spent when the workers start skips every point.
func TestBudgetSkips(t *testing.T) {
	_, g, a, pts := losslessFixture(t)
	sweep, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sweep, &slowOracle{inner: &GraphOracle{Graph: g}, delay: 5 * time.Millisecond},
		nil, Options{Fraction: 1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Errorf("nanosecond budget skipped nothing (audited %d)", rep.Audited)
	}
	if rep.Audited+rep.Skipped != rep.Sampled {
		t.Errorf("audited %d + skipped %d != sampled %d", rep.Audited, rep.Skipped, rep.Sampled)
	}
}

// slowOracle delays each truth run, so time budgets expire mid-audit.
type slowOracle struct {
	inner Oracle
	delay time.Duration
}

func (o *slowOracle) Truth(ctx context.Context, l stacks.Latencies) (float64, stacks.Stack, error) {
	time.Sleep(o.delay)
	return o.inner.Truth(ctx, l)
}

func TestRunPreconditions(t *testing.T) {
	_, g, a, pts := losslessFixture(t)
	rep, err := Run(&dse.Report{}, &GraphOracle{Graph: g}, nil, Options{})
	if rep != nil || err != nil {
		t.Errorf("fraction 0 returned (%v, %v), want (nil, nil)", rep, err)
	}
	plain, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(plain, &GraphOracle{Graph: g}, nil, Options{Fraction: 1}); err == nil {
		t.Error("sweep without fingerprint accepted")
	}
	withFP, err := dse.Explore(dse.RpStacksEngine(a), pts, dse.ExploreOptions{NeedFingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(withFP, nil, nil, Options{Fraction: 1}); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestClassTaxonomy(t *testing.T) {
	want := map[stacks.Event]Class{
		stacks.L1I: ICache, stacks.ITLB: ICache,
		stacks.L1D: DCache, stacks.DTLB: DCache,
		stacks.Branch: Branch,
		stacks.Base:   Resource, stacks.FpDiv: Resource, stacks.Store: Resource,
	}
	for e, c := range want {
		if got := ClassOf(e); got != c {
			t.Errorf("ClassOf(%s) = %s, want %s", e, got, c)
		}
	}
	names := ClassNames()
	if len(names) != int(NumClasses) || names[0] != "icache" || names[3] != "resource" {
		t.Errorf("ClassNames() = %v", names)
	}
}
