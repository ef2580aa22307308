package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// toyScale shrinks every workload to a few seconds.
var toyScale = scale{
	coldUOps: 1500, graphUOps: 1500, serviceUOps: 1500,
	sweepAxes:    []string{"L1D=1,2,3", "FpAdd=2,4"},
	jobAxes:      []string{"L1D=1,2,3,4", "FpMul=2,4,6,8"},
	graphJobAxes: []string{"L1D=1,4", "FpAdd=2,8"},
	minClass:     12,
	minReps:      2,
	auditPoints:  3,
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json lists exactly
// the workloads the program runs and the metrics it prints, with the same
// units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	listed := func(defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program prints %d", len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	listed(endToEnd, b.EndToEnd)
	listed(perLayer, b.PerLayer)
}

// TestWorkloadsAtToySize runs every workload untraced and traced at toy
// size: no operation may fail, every metric is printed with its unit, the
// end-to-end metrics are positive, graph-sweep records its batch width, and
// the service's memory-hit ratio is exactly one half.
func TestWorkloadsAtToySize(t *testing.T) {
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			defs := endToEnd
			if traced {
				mode, defs = "traced", perLayer
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				r := newRun(1, time.Second, traced, t.TempDir(), toyScale)
				res, err := execute(r, name, fn)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v", d.name, m.Value)
					}
				}
				if !traced {
					return
				}
				if w := res.Metrics["dse.batch_width"].Value; name == "graph-sweep" && w < 1 {
					t.Errorf("dse.batch_width not recorded: %v", w)
				}
				if name == "service-jobs" {
					if v := res.Metrics["serve.mem_hit_ratio"].Value; v != 0.5 {
						t.Errorf("serve.mem_hit_ratio = %v, want exactly 0.5", v)
					}
				}
			})
		}
	}
}
