package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"
)

// fragment.go — the cross-process span transport. A fleet worker cannot hand
// its span records to the coordinator in memory, so it serializes them as a
// *fragment*: a blob published into the shared store root alongside the
// chunk result blobs and bound to the same sweep identity fingerprint. The
// store checksums it; the coordinator's assembly phase decodes every
// fragment it finds, drops damaged or foreign ones with a counter — a lost
// fragment degrades the timeline, never the sweep — and merges the
// survivors into one multi-process timeline (MergeTimeline).

// ClockSync is one measured clock-correspondence between a worker tracer and
// the coordinator tracer, captured NTP-style around a lease round-trip: T0
// and T1 are the worker clock immediately before and after the lease POST,
// Coord is the coordinator clock stamped into the response. The coordinator
// produced its stamp somewhere inside [T0, T1], so the midpoint estimates
// the offset with error bounded by half the round-trip.
type ClockSync struct {
	T0    time.Duration `json:"t0"`
	T1    time.Duration `json:"t1"`
	Coord time.Duration `json:"coord"`
}

// Offset is the estimated coordinator-minus-worker clock difference: adding
// it to a worker-clock timestamp maps it onto the coordinator's timebase.
func (s ClockSync) Offset() time.Duration { return s.Coord - (s.T0+s.T1)/2 }

// Fragment is one process's contribution to a merged timeline: its span
// records on its own tracer clock, plus the clock sync that maps them onto
// the coordinator's.
type Fragment struct {
	// Process identifies the emitting process (the fleet worker ID); it
	// names the fragment's track in the merged timeline.
	Process string `json:"process"`
	// Records are the process's completed spans, on its own tracer clock.
	Records []Record `json:"records"`
	// Sync maps this process's clock onto the coordinator's; HasSync is
	// false when no lease round-trip was captured (the records then merge
	// un-normalized, offset zero).
	Sync    ClockSync `json:"sync"`
	HasSync bool      `json:"has_sync"`
}

// Fragment blob layout: magic, sweep fingerprint, JSON payload. Like the
// chunk result blobs (dse.EncodeChunk) it carries identity only, first, so
// a reader rejects a foreign sweep before trusting a byte of payload;
// integrity is store.Shared's frame.
const fragMagic = "RPFRG2"

const fragHeader = len(fragMagic) + sha256.Size

// EncodeFragment renders frag as a blob bound to the sweep identity
// fingerprint (a full SHA-256, as dse.Engine.Fingerprint returns).
func EncodeFragment(fingerprint []byte, frag *Fragment) ([]byte, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("obs: fragment fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	payload, err := json.Marshal(frag)
	if err != nil {
		return nil, fmt.Errorf("obs: encoding fragment payload: %w", err)
	}
	buf := make([]byte, 0, fragHeader+len(payload))
	buf = append(buf, fragMagic...)
	buf = append(buf, fingerprint...)
	return append(buf, payload...), nil
}

// DecodeFragment parses a fragment blob and verifies its identity: the magic
// and the given sweep fingerprint. Any failure is an error the caller turns
// into a dropped-fragment counter — never a failed sweep.
func DecodeFragment(fingerprint, raw []byte) (*Fragment, error) {
	if len(fingerprint) != sha256.Size {
		return nil, fmt.Errorf("obs: fragment fingerprint must be %d bytes, got %d", sha256.Size, len(fingerprint))
	}
	if len(raw) < fragHeader {
		return nil, fmt.Errorf("obs: fragment blob truncated at %d bytes", len(raw))
	}
	if string(raw[:len(fragMagic)]) != fragMagic {
		return nil, fmt.Errorf("obs: fragment blob has wrong magic")
	}
	if !bytes.Equal(raw[len(fragMagic):fragHeader], fingerprint) {
		return nil, fmt.Errorf("obs: fragment belongs to a different sweep")
	}
	var frag Fragment
	if err := json.Unmarshal(raw[fragHeader:], &frag); err != nil {
		return nil, fmt.Errorf("obs: decoding fragment payload: %w", err)
	}
	return &frag, nil
}
