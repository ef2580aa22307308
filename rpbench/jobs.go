package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/dse"
	"repro/internal/store"
	"repro/internal/trace"
)

// libJob is one exploration request answered in-process through the
// library, in the two classes rpserved distinguishes: from the engine's
// model held in memory (mem), or from the model decoded out of its durable
// blobs in a store.Store (disk). The disk class repeats the decode steps
// of rpserved's durable tier — trace.Read, core.ReadAnalysis,
// depgraph.Build — without cache.Tiered; only service-jobs times the tier.
type libJob struct {
	app    string
	points int
	want   answer
	mem    func() (*dse.Report, error)
	disk   func() (*dse.Report, error)
}

// getBlob reads a published blob back, failing when it is gone.
func getBlob(st *store.Store, key string) ([]byte, error) {
	blob, _, ok := st.Get(key)
	if !ok {
		return nil, fmt.Errorf("store lost %s", key)
	}
	return blob, nil
}

// decodeTrace reads a trace blob from the store and decodes it.
func decodeTrace(st *store.Store, key string) (*trace.Trace, error) {
	blob, err := getBlob(st, key)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Read(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", key, err)
	}
	return tr, nil
}

// publish puts a blob into the job store and checks it reads back intact.
func publish(st *store.Store, key string, blob []byte) error {
	if err := st.Put(key, blob, 0); err != nil {
		return err
	}
	got, err := getBlob(st, key)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, blob) {
		return fmt.Errorf("store returned different bytes for %s", key)
	}
	return nil
}

// jobTimes collects a job phase's latencies per class. A job during which
// the hypervisor took CPU time from the VM — the steal counter in
// /proc/stat advanced — is verified and counted like any other, but its
// latency is left out: steal comes in bursts of tens of milliseconds that
// land on a few jobs and would set the p90 by themselves (README.md, "Host
// speed").
type jobTimes struct {
	lat    map[string][]float64 // per class, milliseconds
	busy   time.Duration        // summed latency of the kept jobs
	stolen int                  // jobs left out
}

func newJobTimes() *jobTimes { return &jobTimes{lat: make(map[string][]float64)} }

// stealNow returns the steal counter of /proc/stat.
func stealNow() uint64 {
	_, steal := cpuTimes()
	return steal
}

// add records a job of class that took d, unless the hypervisor stole
// time during it, and reports whether it was kept.
func (j *jobTimes) add(class string, d time.Duration, stolen bool) bool {
	if stolen {
		j.stolen++
		return false
	}
	j.lat[class] = append(j.lat[class], millis(d))
	j.busy += d
	return true
}

// more reports whether a job phase that started at start goes on: until
// its budget is spent and each class has min kept jobs, and in any case
// for no more than three budgets.
func (j *jobTimes) more(start time.Time, budget time.Duration, min int) bool {
	spent := time.Since(start)
	return spent < budget || (len(j.lat["mem"]) < min || len(j.lat["disk"]) < min) && spent < 3*budget
}

// libraryJobs answers jobs in rounds — per program one disk job, then one
// mem job — until the budget is spent and each class has r.size.minClass
// kept samples, verifies every answer against the program's reference
// ranking, and records the job metrics. It returns the point rates of the
// kept jobs' sweeps.
func (r *run) libraryJobs(jobs []*libJob, budget time.Duration) []float64 {
	jt := newJobTimes()
	var rates []float64
	start := time.Now()
	for jt.more(start, budget, r.size.minClass) {
		for _, j := range jobs {
			for _, class := range []string{"disk", "mem"} {
				sweep := j.mem
				if class == "disk" {
					sweep = j.disk
				}
				s0 := stealNow()
				t := time.Now()
				rep, err := sweep()
				var got answer
				if err == nil {
					got = answerOf(rep.Results)
				}
				d := time.Since(t)
				stolen := stealNow() != s0
				r.check(err == nil && got.equal(j.want), "%s %s job: err %v, answer differs from reference", j.app, class, err)
				if jt.add(class, d, stolen) && err == nil && rep.Wall > 0 {
					rates = append(rates, float64(j.points)/rep.Wall.Seconds())
				}
			}
		}
	}
	r.setJobMetrics(jt, time.Since(start))
	return rates
}

// setJobMetrics records the per-class latency percentiles and the job
// rate of the kept jobs, and the sample counts behind them.
func (r *run) setJobMetrics(jt *jobTimes, wall time.Duration) {
	mem, disk := jt.lat["mem"], jt.lat["disk"]
	r.set("mem_job_p50_ms", median(mem))
	r.set("mem_job_p90_ms", percentile(mem, 90))
	r.set("disk_job_p50_ms", median(disk))
	r.set("disk_job_p90_ms", percentile(disk, 90))
	r.set("jobs_per_s", float64(len(mem)+len(disk))/jt.busy.Seconds())
	for _, m := range []string{"mem_job_p50_ms", "mem_job_p90_ms"} {
		r.samples[m] = len(mem)
	}
	for _, m := range []string{"disk_job_p50_ms", "disk_job_p90_ms"} {
		r.samples[m] = len(disk)
	}
	r.samples["jobs_per_s"] = len(mem) + len(disk)
	r.info["stolen_jobs"] = jt.stolen
	r.info["job_phase_s"] = wall.Seconds()
}
