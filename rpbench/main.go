// Command rpbench is the repository's benchmark: it runs one workload of
// the RpStacks pipeline in-process for a fixed time, verifies every
// operation, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash rpbench/run.sh --workload analyze-cold|graph-sweep|service-jobs \
//	                    --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, timed from outside the program around calls into each layer.
// README.md in this directory explains why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// prints all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"points_per_s", "1/s"},
	{"pred_err_pct", "%"},
	{"mem_job_p50_ms", "ms"},
	{"mem_job_p90_ms", "ms"},
	{"disk_job_p50_ms", "ms"},
	{"disk_job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the metrics of single layers; every workload prints all of
// them on a traced run, with 0 for a layer the workload never calls.
var perLayer = []metricDef{
	{"cpu.simulate_s", "s"},
	{"cpu.uops_per_s", "1/s"},
	{"core.analyze_s", "s"},
	{"core.analyze_uops_per_s", "1/s"},
	{"core.analyze_alloc_mb", "MB"},
	{"core.segment_build_s", "s"},
	{"core.generate_s", "s"},
	{"core.stacks", "count"},
	{"core.predict_ns", "ns"},
	{"core.batch_predict_ns", "ns"},
	{"core.decode_ms", "ms"},
	{"depgraph.build_s", "s"},
	{"depgraph.build_uops_per_s", "1/s"},
	{"depgraph.batch_point_us", "us"},
	{"depgraph.scalar_point_us", "us"},
	{"depgraph.weight_classes", "count"},
	{"dse.sweep_s", "s"},
	{"dse.batch_width", "count"},
	{"trace.decode_ms", "ms"},
	{"serve.mem_queue_ms", "ms"},
	{"serve.disk_queue_ms", "ms"},
	{"serve.mem_setup_ms", "ms"},
	{"serve.disk_setup_ms", "ms"},
	{"serve.mem_sweep_ms", "ms"},
	{"serve.disk_sweep_ms", "ms"},
	{"serve.mem_hit_ratio", "ratio"},
	{"store.hits", "count"},
	{"audit.oracle_s", "s"},
	{"bench.traced_setup_s", "s"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"analyze-cold": analyzeCold,
	"graph-sweep":  graphSweep,
	"service-jobs": serviceJobs,
}

// run is one benchmark invocation: its settings, and the counts and values
// the workload records.
type run struct {
	seed    int64
	budget  time.Duration
	traced  bool
	workdir string
	size    scale

	attempted, failed int
	values            map[string]float64
	info              map[string]any
	// samples counts the measurements behind each median and percentile.
	samples map[string]int
	// laps holds per-layer call durations of a traced run, in nanoseconds.
	laps map[string][]float64
	// oracleTime is the time spent in audit.Run.
	oracleTime time.Duration
	// calib holds the calibration kernels' times, in milliseconds.
	calib map[string][]float64
}

func newRun(seed int64, budget time.Duration, traced bool, workdir string, size scale) *run {
	return &run{seed: seed, budget: budget, traced: traced, workdir: workdir, size: size,
		values: make(map[string]float64), info: make(map[string]any),
		samples: make(map[string]int), laps: make(map[string][]float64),
		calib: make(map[string][]float64)}
}

// check counts one verified operation, failed when ok is false; the reason
// of the first few failures goes to standard error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "rpbench: check failed: "+format+"\n", args...)
		}
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// setMedian records the median of xs as a metric and the sample count
// behind it.
func (r *run) setMedian(name string, xs []float64) {
	r.set(name, median(xs))
	r.samples[name] = len(xs)
}

// metricJSON is one printed metric.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the benchmark's last output line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the printed metrics for the run's mode: every defined
// metric appears, and a metric the workload did not record is an error for
// end-to-end metrics and 0 (layer not called) for per-layer ones. Times
// and rates are reported at the reference host speed: a time is divided
// by the run's measured slowdown and a rate multiplied by it (calib.go).
func (r *run) result(slowdown float64) (*resultJSON, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := &resultJSON{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.traced {
			return nil, fmt.Errorf("workload recorded no value for %s", d.name)
		}
		switch d.unit {
		case "s", "ms", "us", "ns":
			v /= slowdown
		case "1/s":
			v *= slowdown
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	out.Correct = r.attempted > 0 && r.failed == 0
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload: analyze-cold, graph-sweep or service-jobs")
	seed := flag.Int64("seed", 1, "seed of the workload's generated inputs")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's stores (removed on exit)")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "rpbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "rpbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *traceMode == 1, *workdir, fullScale)
	res, err := execute(r, *name, fn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and returns its result line. The info line
// (host facts, sample counts) is printed to standard output before it.
func execute(r *run, name string, fn func(*run) error) (*resultJSON, error) {
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.workdir = dir
	r.info["workload"] = name
	r.info["seed"] = r.seed
	r.info["traced"] = r.traced
	r.info["host"] = hostFacts(dir)
	total0, steal0 := cpuTimes()
	r.calibrate()
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.calibrate()
	r.info["cpu_steal_pct"] = stealPct(total0, steal0)
	r.info["samples"] = r.samples
	calibMS := make(map[string]float64)
	for k, xs := range r.calib {
		calibMS[k] = median(xs)
	}
	slowdown := r.hostSlowdown()
	r.info["calib_ms"] = calibMS
	r.info["host_slowdown"] = slowdown
	res, err := r.result(slowdown)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	info, err := json.Marshal(map[string]any{"info": r.info})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(info))
	return res, nil
}

// --- statistics ---------------------------------------------------------

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// seconds and millis convert durations to the printed units.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
