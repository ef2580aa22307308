package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
)

// JobStatus is the lifecycle state of a submitted job.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobTimeout  JobStatus = "timeout"  // the per-job deadline expired mid-run
	JobCanceled JobStatus = "canceled" // a forced shutdown abandoned the run
)

// Job is one accepted exploration request moving through the queue.
type Job struct {
	ID        string
	Spec      *JobSpec
	Submitted time.Time

	// tracer is the job's flight recorder: a bounded span ring covering the
	// job's whole lifecycle (queue wait, setup, sweep chunks, cache and
	// store activity), exported by GET /debug/trace?job=<id>.
	tracer *obs.Tracer
	// root is the job's top-level span; queued covers the time between
	// submission and a worker claiming the job.
	root   obs.Span
	queued obs.Span

	mu       sync.Mutex
	status   JobStatus
	started  time.Time
	finished time.Time
	result   *JobResult
	err      error
	// audit is the shadow-audit outcome of an audited job; auditStatus
	// summarizes it ("ok" or "drift") for the job view and is empty when
	// the job did not request an audit.
	audit       *audit.Report
	auditStatus string
	// fleetFrags are the worker trace fragments of a fleet-delegated job,
	// collected from the coordinator after each fleet sweep (a search job
	// accumulates one batch per probe round). Non-empty fleetFrags switch
	// GET /debug/trace to the merged multi-process timeline.
	fleetFrags []*obs.Fragment
}

// Trace snapshots the job's flight recorder, oldest span first (nil when the
// job was accepted without tracing).
func (j *Job) Trace() []obs.Record { return j.tracer.Snapshot() }

// addFleetFragments appends worker trace fragments from one fleet sweep;
// search jobs call this once per probe round.
func (j *Job) addFleetFragments(frags []*obs.Fragment) {
	if len(frags) == 0 {
		return
	}
	j.mu.Lock()
	j.fleetFrags = append(j.fleetFrags, frags...)
	j.mu.Unlock()
}

// FleetFragments returns the job's collected worker trace fragments (nil for
// locally-run jobs).
func (j *Job) FleetFragments() []*obs.Fragment {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*obs.Fragment(nil), j.fleetFrags...)
}

// PointResult is one ranked design point: the explored axis latencies and
// the predicted cost.
type PointResult struct {
	Latencies map[string]float64 `json:"latencies"`
	Cycles    float64            `json:"cycles"`
	CPI       float64            `json:"cpi"`
	// Cost is the point's hardware-cost model value; search jobs only.
	Cost float64 `json:"cost,omitempty"`
	// VerifyErrPct is the online audit-oracle verification error of a
	// search-returned optimum, percent of the oracle's cycle count.
	VerifyErrPct float64 `json:"verify_err_pct,omitempty"`
}

// SearchSummary is the guided-search telemetry of a search job's result:
// how the lazy probe loop covered the (possibly non-materializable) grid
// and how its returned optima verified against the audit oracle.
type SearchSummary struct {
	Mode            string  `json:"mode"`
	GridPoints      int     `json:"grid_points"`
	Probes          int     `json:"probes"`
	ResumedProbes   int     `json:"resumed_probes,omitempty"`
	Rounds          int     `json:"rounds"`
	PeakBoxes       int     `json:"peak_boxes"`
	Converged       bool    `json:"converged"`
	Feasible        bool    `json:"feasible"`
	FrontierSize    int     `json:"frontier_size,omitempty"`
	Verified        bool    `json:"verified"`
	VerifyMaxErrPct float64 `json:"verify_max_err_pct"`
}

// JobResult is the outcome of one finished exploration.
type JobResult struct {
	Engine      string        `json:"engine"`
	TraceDigest string        `json:"trace_digest"`
	GridPoints  int           `json:"grid_points"`
	MicroOps    int           `json:"micro_ops"`
	Meeting     int           `json:"meeting_target,omitempty"` // points under the CPI target
	SetupMS     float64       `json:"setup_ms"`
	SetupCached bool          `json:"setup_cached"` // every tiered lookup the job made (workload, analysis) was a hit
	SweepMS     float64       `json:"sweep_ms"`
	Workers     int           `json:"sweep_workers"`
	Points      []PointResult `json:"points"`
	// Search summarizes the probe loop of a guided-search job; nil for
	// exhaustive sweeps. Points then holds the verified optimum (halving,
	// target) or the full Pareto frontier, cheapest-fastest first.
	Search *SearchSummary `json:"search,omitempty"`
}

func (j *Job) setStatus(st JobStatus) {
	j.mu.Lock()
	j.status = st
	if st == JobRunning {
		j.started = time.Now()
	}
	j.mu.Unlock()
}

// complete records the terminal state, classifying context errors into the
// timeout and canceled statuses, and returns the status it settled on.
func (j *Job) complete(res *JobResult, err error) JobStatus {
	st := JobDone
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		st = JobTimeout
	case errors.Is(err, context.Canceled):
		st = JobCanceled
	default:
		st = JobFailed
	}
	j.mu.Lock()
	j.status = st
	j.finished = time.Now()
	j.result = res
	j.err = err
	j.mu.Unlock()
	return st
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// setAudit records the job's shadow-audit outcome; the audit status the view
// exposes flips to the report's ("drift" once any audited point exceeded the
// threshold).
func (j *Job) setAudit(rep *audit.Report) {
	j.mu.Lock()
	j.audit = rep
	j.auditStatus = rep.Status
	j.mu.Unlock()
}

// Audit returns the job's audit report, nil when the job was not audited
// (or has not finished its audit yet).
func (j *Job) Audit() *audit.Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.audit
}

// AuditStatus returns the audit summary ("ok" or "drift"), empty when the
// job was not audited.
func (j *Job) AuditStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.auditStatus
}

// jobView is the JSON shape of a job in API responses.
type jobView struct {
	ID        string    `json:"id"`
	Status    JobStatus `json:"status"`
	Workload  string    `json:"workload,omitempty"`
	Engine    string    `json:"engine"`
	GridSize  int       `json:"grid_points"`
	Submitted time.Time `json:"submitted"`
	RunMS     float64   `json:"run_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
	// AuditStatus is "ok" or "drift" for audited jobs; the full report is
	// served by GET /debug/audit?job=<id>.
	AuditStatus string     `json:"audit_status,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// view snapshots the job for an API response; withResult includes the full
// ranked point list (GET /jobs/{id}) instead of just the summary row.
func (j *Job) view(withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.ID,
		Status:    j.status,
		Workload:  j.Spec.Workload,
		Engine:    j.Spec.Engine,
		GridSize:  j.Spec.GridSize,
		Submitted: j.Submitted,
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	v.AuditStatus = j.auditStatus
	if withResult {
		v.Result = j.result
	}
	return v
}
