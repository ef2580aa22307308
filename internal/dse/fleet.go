package dse

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/isa"
	"repro/internal/stacks"
)

// fleet.go — the exported face of the checkpoint identity and chunk
// machinery, for internal/fleet. A distributed sweep reuses the exact
// fingerprint salts and chunk encoding the crash-safe checkpoint uses, so a
// worker process can prove it rebuilt the coordinator's engine inputs
// bit-identically (fingerprint equality) and a chunk result blob published
// into store.Shared is byte-identical to a checkpoint chunk file's payload.
// Integrity is the store's: Shared frames the blob exactly as a checkpoint
// file is framed.

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

// SweepFingerprintGraph returns the identity hash ExploreGraphOpts computes
// for a checkpointed sweep of the graph engine over points: SHA-256 over the
// method name, the graph's fingerprint stream and the full point list.
func SweepFingerprintGraph(g *depgraph.Graph, points []stacks.Latencies) ([]byte, error) {
	fp, err := sweepFingerprint("graph", g.WriteFingerprint, points)
	if err != nil {
		return nil, err
	}
	return fp[:], nil
}

// SweepFingerprintRpStacks returns the identity hash ExploreRpStacksOpts
// computes for a checkpointed sweep of the RpStacks engine over points.
func SweepFingerprintRpStacks(a *core.Analysis, points []stacks.Latencies) ([]byte, error) {
	fp, err := sweepFingerprint("rpstacks", func(w io.Writer) error { return core.WriteAnalysis(w, a) }, points)
	if err != nil {
		return nil, err
	}
	return fp[:], nil
}

// SweepFingerprintSim returns the identity hash ExploreSimOpts computes for
// a checkpointed sweep of the re-simulation engine over points.
func SweepFingerprintSim(cfg *config.Config, uops []isa.MicroOp, points []stacks.Latencies) ([]byte, error) {
	fp, err := sweepFingerprint("simulator", simSalt(cfg, uops), points)
	if err != nil {
		return nil, err
	}
	return fp[:], nil
}

// EncodeChunk renders one completed chunk of sweep results in the checkpoint
// chunk format — magic, version, fingerprint, count, (index, cycles) pairs —
// binding the results to the sweep identity fingerprint.
// idxs and cycles are aligned (cycles[k] belongs to point idxs[k]) and must
// be non-empty; fingerprint must be a full SHA-256 as the SweepFingerprint*
// helpers return.
func EncodeChunk(fingerprint []byte, idxs []int, cycles []float64) ([]byte, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("dse: chunk fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	if len(idxs) == 0 || len(idxs) != len(cycles) {
		return nil, fmt.Errorf("dse: chunk wants aligned non-empty indices and cycles, got %d and %d", len(idxs), len(cycles))
	}
	return encodeChunk([sha256.Size]byte(fingerprint), idxs, cycles), nil
}

// DecodeChunk parses a chunk blob and verifies it belongs to the sweep named
// by fingerprint. A malformed blob (wrong magic or version, truncation) and
// a healthy blob of a different sweep are both errors — the fleet layer
// never resumes across them, it re-evaluates the chunk instead.
func DecodeChunk(fingerprint, raw []byte) (idxs []int, cycles []float64, err error) {
	if len(fingerprint) != sha256.Size {
		return nil, nil, fmt.Errorf("dse: chunk fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	fp, entries, err := decodeChunk(raw)
	if err != nil {
		return nil, nil, err
	}
	if fp != [sha256.Size]byte(fingerprint) {
		return nil, nil, fmt.Errorf("dse: chunk belongs to a different sweep")
	}
	idxs = make([]int, len(entries))
	cycles = make([]float64, len(entries))
	for k, e := range entries {
		idxs[k] = e.idx
		cycles[k] = e.cycles
	}
	return idxs, cycles, nil
}
