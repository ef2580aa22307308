package config

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/stacks"
)

// TestBaselineMatchesTableII pins the paper's target microarchitecture.
func TestBaselineMatchesTableII(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	s := c.Structure
	if s.ROBSize != 128 || s.IssueQSize != 36 || s.LSQSize != 64 {
		t.Fatalf("window sizes %d/%d/%d != 128/36/64", s.ROBSize, s.IssueQSize, s.LSQSize)
	}
	for _, w := range []int{s.FetchWidth, s.RenameWidth, s.DispatchWidth, s.IssueWidth, s.CommitWidth} {
		if w != 4 {
			t.Fatalf("pipeline width %d != 4", w)
		}
	}
	if s.LoadUnits != 2 || s.StoreUnits != 2 || s.FPUnits != 2 || s.BaseALUUnits != 4 || s.LongALUUnits != 2 {
		t.Fatal("functional unit counts differ from Table II")
	}
	// 48KB 4-way L1s over 64B lines; 4MB 8-way L2.
	if s.L1ISets*s.L1IWays*s.LineSize != 48<<10 {
		t.Fatalf("L1I capacity %d", s.L1ISets*s.L1IWays*s.LineSize)
	}
	if s.L2Sets*s.L2Ways*s.LineSize != 4<<20 {
		t.Fatalf("L2 capacity %d", s.L2Sets*s.L2Ways*s.LineSize)
	}
	lat := c.Lat
	want := map[stacks.Event]float64{
		stacks.L1I: 2, stacks.L1D: 4, stacks.L2D: 12, stacks.MemD: 133,
		stacks.Agu: 2, stacks.IntMul: 4, stacks.IntDiv: 32,
		stacks.FpAdd: 6, stacks.FpMul: 6, stacks.FpDiv: 24,
	}
	for e, v := range want {
		if lat[e] != v {
			t.Errorf("%s latency = %g, want %g", e, lat[e], v)
		}
	}
}

func TestValidateRejectsBadStructures(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Structure.ROBSize = 0 },
		func(c *Config) { c.Structure.ROBSize = 2 }, // below commit width
		func(c *Config) { c.Structure.LineSize = 48 },
		func(c *Config) { c.Structure.PageSize = 1000 },
		func(c *Config) { c.Structure.Predictor = "oracle" },
		func(c *Config) { c.Lat[stacks.Base] = 2 },
		func(c *Config) { c.Structure.MSHRs = -1 },
	}
	for i, mutate := range cases {
		c := Baseline()
		mutate(c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCloneIsACopy(t *testing.T) {
	c := Baseline()
	e := c.Clone()
	e.Structure.ROBSize = 7
	if c.Structure.ROBSize == 7 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Baseline()
	data, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"robSize\": 128") {
		t.Fatalf("marshalled config missing fields:\n%s", data)
	}
	var d Config
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d != *c {
		t.Fatal("round trip changed the config")
	}
}
