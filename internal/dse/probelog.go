package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/stacks"
)

// probelog.go — crash-safe search resume. A probe-logged search persists
// every completed probe round as one chunk file of the checkpoint layer's
// looseLog (probeLog: an RPCKP payload in a store frame), keyed by canonical
// design-point index instead of sweep position. A killed search loses at
// most the round in flight: because the search driver is deterministic in
// the probed cycle values, a restarted run replays its decision sequence,
// satisfies already-logged rounds from the restored cache without touching
// the engine, and re-evaluates only from the lost round on — returning a
// result identical to an uninterrupted run's.
//
// A corrupt chunk is deleted and its probes re-evaluated; a healthy chunk
// carrying a different search fingerprint (engine inputs, space, spec or
// baseline changed) is a hard error, mirroring the sweep checkpoint.

// searchFingerprint binds a probe log to everything that determines which
// probes a search makes and what they return: the engine and its prepared
// input (streamed by salt), the canonical search plan (axes, sorted values,
// cost model, full spec) and the baseline latencies off-axis events keep.
func searchFingerprint(method string, salt func(io.Writer) error, plan *SearchPlan, base stacks.Latencies) ([]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "search|%s|%s|", method, plan.spec.String())
	if salt != nil {
		if err := salt(h); err != nil {
			return nil, fmt.Errorf("dse: fingerprinting engine input: %w", err)
		}
	}
	var b [8]byte
	for _, a := range plan.axes {
		fmt.Fprintf(h, "|%d:%d:", a.event, len(a.vals))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.weight))
		h.Write(b[:])
		for _, v := range a.vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	h.Write([]byte("|base|"))
	for _, v := range base {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum(nil), nil
}
