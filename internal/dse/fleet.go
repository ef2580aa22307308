package dse

import (
	"crypto/sha256"
	"fmt"

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

// EncodeChunk renders one completed chunk of sweep results in the checkpoint
// chunk format — magic, version, fingerprint, count, (index, cycles) pairs —
// binding the results to the sweep identity fingerprint.
// idxs and cycles are aligned (cycles[k] belongs to point idxs[k]) and must
// be non-empty; fingerprint must be a full SHA-256 as Engine.Fingerprint
// returns.
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

// ListReport returns the Report of a sweep over points whose results were
// evaluated elsewhere — the fleet coordinator's assembly of published
// chunks. Like Explore it holds points by reference for Report.Point; the
// caller fills in the timing and identity fields.
func ListReport(method string, points []stacks.Latencies, results []Result) *Report {
	return &Report{Method: method, Results: results, points: listSource(points)}
}
