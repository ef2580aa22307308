package dse

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// engine.go — the engine choice. The paper times three engines against
// each other on the same design points (Section V-C): re-simulation,
// dependence-graph reconstruction and RpStacks. An Engine is one of them
// bound to its prepared input; callers pick it once — by type with
// RpStacksEngine, GraphEngine or SimEngine, or by name with EngineByName —
// and hand the value to Explore, Search, Fingerprint and the shadow audit.
//
// The method strings ("rpstacks", "graph", "simulator") are Report.Method
// and salt every sweep and search fingerprint, so checkpoint files, probe
// logs, fleet sweep ids and audit samples are keyed on them: they must
// never change.

// Engine is one prepared evaluation engine. The zero Engine evaluates
// nothing: Explore rejects it, and Search accepts it only when
// SearchOptions.RoundEval serves every round.
type Engine struct {
	// method names the engine in reports and salts its fingerprints.
	method string
	// salt streams the engine's prepared input into identity hashes.
	salt func(io.Writer) error
	// eval wires the per-worker evaluators of one sweep or search over n
	// points, at lane width def when ExploreOptions.BatchSize is zero.
	eval func(opts ExploreOptions, def, n int) engineEval
	// decompose is the engine's predicted stall stack at a design point,
	// the shadow audit's divergence input; nil for the simulator.
	decompose func(*stacks.Latencies) stacks.Stack
}

// RpStacksEngine predicts design points from a prebuilt RpStacks analysis:
// per point the cost is proportional to the (small) number of
// representative stacks, independent of trace length. Each worker holds one
// reusable core.BatchPredictor; results are bit-identical to
// Analysis.Predict per point at every worker count and batch width.
func RpStacksEngine(a *core.Analysis) Engine {
	return Engine{
		method: "rpstacks",
		salt:   func(w io.Writer) error { return core.WriteAnalysis(w, a) },
		eval: func(opts ExploreOptions, def, n int) engineEval {
			return rpstacksEval(a, opts, def, n)
		},
		decompose: func(l *stacks.Latencies) stacks.Stack { return a.Representative(l) },
	}
}

// GraphEngine predicts design points by re-evaluating the longest path of a
// prebuilt baseline dependence graph (the Fields-style reconstruction
// comparator): cheaper than simulation, still linear in trace length per
// point. Each worker holds one reusable depgraph.BatchEvaluator whose width
// is memory-capped on large graphs; results are bit-identical to
// depgraph.Evaluator's LongestPath per point. The graph is only read.
func GraphEngine(g *depgraph.Graph) Engine {
	return Engine{
		method: "graph",
		salt:   g.WriteFingerprint,
		eval: func(opts ExploreOptions, def, n int) engineEval {
			return graphEval(g, opts, def, n)
		},
		decompose: func(l *stacks.Latencies) stacks.Stack {
			_, st := g.CriticalPath(l)
			return st
		},
	}
}

// SimEngine measures design points by re-running the timing simulator over
// uops under cfg: the ground truth, and the cost yardstick of Figure 13.
// Each point clones the configuration, so workers share nothing.
// Re-simulation has no batched form: it runs one lane and ignores
// ExploreOptions.BatchSize.
func SimEngine(cfg *config.Config, uops []isa.MicroOp) Engine {
	ev := simEval(cfg, uops) // shares nothing across workers or sweeps
	return Engine{
		method: "simulator",
		salt:   simSalt(cfg, uops),
		eval:   func(ExploreOptions, int, int) engineEval { return ev },
	}
}

// simSalt streams the simulator engine's identity: its output is determined
// by the structural config and the µop stream (per-point latencies come from
// the point list the fingerprint already covers).
func simSalt(cfg *config.Config, uops []isa.MicroOp) func(io.Writer) error {
	return func(w io.Writer) error {
		cj, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		if _, err := w.Write(cj); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%v", uops)
		return err
	}
}

// EngineInputs are the prepared inputs EngineByName may bind: the RpStacks
// engine needs Analysis, the graph engine Graph, the sim engine Config and
// UOps. Inputs the named engine does not use are ignored. Analysis, Graph
// and UOps are providers, each called only when the engine that reads it
// is named, so a caller that builds its inputs on demand pays only for the
// named engine's.
type EngineInputs struct {
	Analysis func() (*core.Analysis, error)
	Graph    func() (*depgraph.Graph, error)
	Config   *config.Config
	UOps     func() ([]isa.MicroOp, error)
}

// engineMethods maps each engine name EngineByName accepts to its method
// string.
var engineMethods = map[string]string{"rpstacks": "rpstacks", "graph": "graph", "sim": "simulator"}

// EngineMethod validates an engine name — rpstacks, graph or sim — and
// returns the method string its reports and fingerprints carry, for callers
// that hold a name but not the engine's inputs.
func EngineMethod(name string) (string, error) {
	if m, ok := engineMethods[name]; ok {
		return m, nil
	}
	return "", fmt.Errorf("dse: unknown engine %q (want rpstacks, graph or sim)", name)
}

// EngineByName builds the named engine over its inputs, failing on an
// unknown name or a missing input. It is the one place an engine name turns
// into an engine.
func EngineByName(name string, in EngineInputs) (Engine, error) {
	var need string
	switch name {
	case "rpstacks":
		if in.Analysis != nil {
			a, err := in.Analysis()
			if err != nil {
				return Engine{}, err
			}
			if a != nil {
				return RpStacksEngine(a), nil
			}
		}
		need = "an RpStacks analysis"
	case "graph":
		if in.Graph != nil {
			g, err := in.Graph()
			if err != nil {
				return Engine{}, err
			}
			if g != nil {
				return GraphEngine(g), nil
			}
		}
		need = "a dependence graph"
	case "sim":
		if in.Config != nil && in.UOps != nil {
			uops, err := in.UOps()
			if err != nil {
				return Engine{}, err
			}
			if len(uops) > 0 {
				return SimEngine(in.Config, uops), nil
			}
		}
		need = "a configuration and a µop stream"
	default:
		_, err := EngineMethod(name)
		return Engine{}, err
	}
	return Engine{}, fmt.Errorf("dse: engine %q needs %s", name, need)
}

// Decompose returns the engine's predicted stall-stack decomposition at a
// design point — the hook internal/audit compares against its oracle — or
// nil for the simulator, which predicts no stack. The hook is safe for
// concurrent use.
func (e Engine) Decompose() func(*stacks.Latencies) stacks.Stack { return e.decompose }

// Fingerprint returns the identity hash Explore computes for a checkpointed
// or NeedFingerprint sweep of this engine over points: SHA-256 over the
// method string, the engine's prepared input and the full point list.
// ExploreSpace over a space whose enumeration is points computes the same
// hash.
func (e Engine) Fingerprint(points []stacks.Latencies) ([]byte, error) {
	src := listSource(points)
	fp, err := sweepFingerprint(e.method, e.salt, &src)
	if err != nil {
		return nil, err
	}
	return fp[:], nil
}

// Explore evaluates every design point through the engine, sharding the
// point list over opts.Parallelism workers that each evaluate
// opts.BatchSize points per model pass (width resolved by batchWidth).
// Results are written by point index, so they are identical at every
// worker count and width. The Report holds points by reference for
// Report.Point. The batch engines' only possible error is opts.Context's
// cancellation error, checked between chunks.
func Explore(e Engine, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	return explore(e, listSource(points), opts)
}

// ExploreSpace is Explore over every point of sp around base, in
// Space.Point's order, without materializing them: each worker fills its
// lanes from an odometer seeded at its chunk's first index, and
// Report.Point decodes a point on demand. Results, Fingerprint and
// checkpoint chunks are bit-identical to Explore(e, sp.Enumerate(base),
// opts). sp must pass Validate and have a size that fits an int; the
// Report holds it by reference.
func ExploreSpace(e Engine, sp *Space, base stacks.Latencies, opts ExploreOptions) (*Report, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n, exact := sp.SizeSaturating()
	if !exact {
		return nil, fmt.Errorf("dse: design space too large to sweep; use a search mode")
	}
	return explore(e, spaceSource(sp, base, n), opts)
}

// explore is the one sweep behind Explore and ExploreSpace.
func explore(e Engine, src pointSource, opts ExploreOptions) (*Report, error) {
	if e.eval == nil {
		return nil, fmt.Errorf("dse: Explore needs an engine")
	}
	rep := &Report{Method: e.method, Results: make([]Result, src.n), Setup: opts.Setup}
	if err := runPoints(rep, src, opts, e.salt, e.eval(opts, defaultBatchWidth, src.n)); err != nil {
		return nil, err
	}
	return rep, nil
}

// ExploreRpStacksOpts is Explore over RpStacksEngine(a).
func ExploreRpStacksOpts(a *core.Analysis, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	return Explore(RpStacksEngine(a), points, opts)
}

// ExploreGraphOpts is Explore over GraphEngine(g).
func ExploreGraphOpts(g *depgraph.Graph, points []stacks.Latencies, opts ExploreOptions) (*Report, error) {
	return Explore(GraphEngine(g), points, opts)
}
