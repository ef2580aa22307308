// Package config defines the microarchitecture model under exploration: the
// structure domain (sizes, widths, policies — fixed during one RpStacks run)
// and the latency domain (per-event cycle costs — the space a single RpStacks
// analysis covers). Baseline reproduces Table II of the paper.
package config

import (
	"encoding/json"
	"fmt"

	"repro/internal/stacks"
)

// Structure holds the structure-domain parameters of the core. Changing any
// of these requires a fresh simulation and a fresh set of RpStacks; the paper
// calls this the structure category (Section IV-D).
type Structure struct {
	// Window and queue sizes.
	ROBSize      int `json:"robSize"`      // reorder buffer entries
	IssueQSize   int `json:"issueQSize"`   // issue queue entries
	LSQSize      int `json:"lsqSize"`      // load/store queue entries
	FetchBufSize int `json:"fetchBufSize"` // fetch buffer entries between fetch and rename
	PhysRegs     int `json:"physRegs"`     // physical registers beyond the architectural set

	// Pipeline widths (µops per cycle).
	FetchWidth    int `json:"fetchWidth"`
	RenameWidth   int `json:"renameWidth"`
	DispatchWidth int `json:"dispatchWidth"`
	IssueWidth    int `json:"issueWidth"`
	CommitWidth   int `json:"commitWidth"`

	// Front-end pipeline depth in cycles between I-cache access completion
	// and rename (decode stages); contributes Base cycles.
	FrontendDepth int `json:"frontendDepth"`

	// Functional unit counts per class.
	LoadUnits    int `json:"loadUnits"`
	StoreUnits   int `json:"storeUnits"`
	FPUnits      int `json:"fpUnits"`
	BaseALUUnits int `json:"baseALUUnits"`
	LongALUUnits int `json:"longALUUnits"` // integer multiply/divide

	// Memory hierarchy geometry. Latencies live in the latency domain.
	LineSize   int `json:"lineSize"`
	L1ISets    int `json:"l1iSets"`
	L1IWays    int `json:"l1iWays"`
	L1DSets    int `json:"l1dSets"`
	L1DWays    int `json:"l1dWays"`
	L2Sets     int `json:"l2Sets"`
	L2Ways     int `json:"l2Ways"`
	ITLBSize   int `json:"itlbSize"`
	DTLBSize   int `json:"dtlbSize"`
	PageSize   int `json:"pageSize"`
	MSHRs      int `json:"mshrs"`      // outstanding line fills per data cache
	StoreBufSz int `json:"storeBufSz"` // committed-store write buffer entries

	// Branch predictor selection: "bimodal", "gshare" or "tournament",
	// with table size in entries (power of two).
	Predictor     string `json:"predictor"`
	PredictorBits int    `json:"predictorBits"` // log2 of table entries
	BTBEntries    int    `json:"btbEntries"`
}

// Config is a complete design point: one structure plus one latency
// assignment.
type Config struct {
	Structure Structure        `json:"structure"`
	Lat       stacks.Latencies `json:"latencies"`
}

// Baseline returns the paper's target microarchitecture (Table II):
// 128-entry ROB, 36-entry issue queue, 64-entry LSQ, 4-wide pipeline,
// LD(2) ST(2) FP(2) BaseALU(4) LongALU(2) functional units, 48KB 4-way L1s,
// 4MB 8-way L2, 133-cycle memory, and the Table II functional-unit
// latencies.
func Baseline() *Config {
	var lat stacks.Latencies
	lat[stacks.Base] = 1
	lat[stacks.L1I] = 2
	lat[stacks.L2I] = 12
	lat[stacks.MemI] = 133
	lat[stacks.ITLB] = 20
	lat[stacks.L1D] = 4
	lat[stacks.L2D] = 12
	lat[stacks.MemD] = 133
	lat[stacks.DTLB] = 20
	lat[stacks.Agu] = 2 // the LD unit of Table II
	lat[stacks.Store] = 1
	lat[stacks.Branch] = 8
	lat[stacks.IntAlu] = 1
	lat[stacks.IntMul] = 4
	lat[stacks.IntDiv] = 32
	lat[stacks.FpAdd] = 6
	lat[stacks.FpMul] = 6
	lat[stacks.FpDiv] = 24

	return &Config{
		Structure: Structure{
			ROBSize:      128,
			IssueQSize:   36,
			LSQSize:      64,
			FetchBufSize: 16,
			PhysRegs:     160,

			FetchWidth:    4,
			RenameWidth:   4,
			DispatchWidth: 4,
			IssueWidth:    4,
			CommitWidth:   4,
			FrontendDepth: 3,

			LoadUnits:    2,
			StoreUnits:   2,
			FPUnits:      2,
			BaseALUUnits: 4,
			LongALUUnits: 2,

			LineSize: 64,
			// 48KB 4-way: 192 sets of 64B lines.
			L1ISets: 192, L1IWays: 4,
			L1DSets: 192, L1DWays: 4,
			// 4MB 8-way: 8192 sets of 64B lines.
			L2Sets: 8192, L2Ways: 8,
			ITLBSize: 64, DTLBSize: 64,
			PageSize:   4096,
			MSHRs:      8,
			StoreBufSz: 8,

			Predictor:     "gshare",
			PredictorBits: 12,
			BTBEntries:    1024,
		},
		Lat: lat,
	}
}

// Validate checks the design point for internal consistency.
func (c *Config) Validate() error {
	s := &c.Structure
	pos := []struct {
		name string
		v    int
	}{
		{"robSize", s.ROBSize}, {"issueQSize", s.IssueQSize},
		{"lsqSize", s.LSQSize}, {"fetchBufSize", s.FetchBufSize},
		{"physRegs", s.PhysRegs},
		{"fetchWidth", s.FetchWidth}, {"renameWidth", s.RenameWidth},
		{"dispatchWidth", s.DispatchWidth}, {"issueWidth", s.IssueWidth},
		{"commitWidth", s.CommitWidth}, {"frontendDepth", s.FrontendDepth},
		{"loadUnits", s.LoadUnits}, {"storeUnits", s.StoreUnits},
		{"fpUnits", s.FPUnits}, {"baseALUUnits", s.BaseALUUnits},
		{"longALUUnits", s.LongALUUnits},
		{"lineSize", s.LineSize},
		{"l1iSets", s.L1ISets}, {"l1iWays", s.L1IWays},
		{"l1dSets", s.L1DSets}, {"l1dWays", s.L1DWays},
		{"l2Sets", s.L2Sets}, {"l2Ways", s.L2Ways},
		{"itlbSize", s.ITLBSize}, {"dtlbSize", s.DTLBSize},
		{"pageSize", s.PageSize}, {"mshrs", s.MSHRs},
		{"storeBufSz", s.StoreBufSz},
		{"predictorBits", s.PredictorBits}, {"btbEntries", s.BTBEntries},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %d", p.name, p.v)
		}
	}
	if s.LineSize&(s.LineSize-1) != 0 {
		return fmt.Errorf("config: lineSize must be a power of two, got %d", s.LineSize)
	}
	if s.PageSize&(s.PageSize-1) != 0 {
		return fmt.Errorf("config: pageSize must be a power of two, got %d", s.PageSize)
	}
	switch s.Predictor {
	case "bimodal", "gshare", "tournament", "taken":
	default:
		return fmt.Errorf("config: unknown predictor %q", s.Predictor)
	}
	if s.ROBSize < s.CommitWidth {
		return fmt.Errorf("config: robSize (%d) smaller than commitWidth (%d)", s.ROBSize, s.CommitWidth)
	}
	return c.Lat.Validate()
}

// Clone returns a deep copy of the design point.
func (c *Config) Clone() *Config {
	out := *c
	return &out
}

// JSON renders the design point as indented JSON.
func (c *Config) JSON() ([]byte, error) { return json.MarshalIndent(c, "", "  ") }
