package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/stacks"
	"repro/internal/wire"
)

// codec.go — the durable form of an Analysis. The analysis is the paper's
// amortizable artifact: one expensive simulate+analyze pass produces it,
// then every design-point query is a cheap re-weighting. Persisting it (via
// internal/store) makes that amortization survive process restarts, so the
// codec is versioned, self-describing about its event-space width, and
// strict on decode: truncated or inconsistent bytes return errors, never a
// half-built analysis.
//
// Stacks are stored sparsely (non-zero event counts only) because a
// representative stack touches a handful of the event kinds.

const (
	analysisMagic   = "RPANL"
	analysisVersion = 1

	// maxAnalysisSegments bounds the segment count a decoder accepts; a
	// trace would need billions of µops to exceed it honestly.
	maxAnalysisSegments = 1 << 24
	// maxSegmentStacks bounds the per-segment representative set; analysis
	// options cap it far lower in practice.
	maxSegmentStacks = 1 << 16
	// maxMicroOps bounds the µop count and segment bounds a decoder accepts.
	maxMicroOps = 1 << 40
)

// WriteAnalysis serializes the analysis in the canonical binary form, in
// one write.
func WriteAnalysis(w io.Writer, a *Analysis) error {
	var buf []byte
	putF := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	putB := func(v bool) {
		b := byte(0)
		if v {
			b = 1
		}
		buf = append(buf, b)
	}
	buf = append(buf, analysisMagic...)
	buf = binary.AppendUvarint(buf, analysisVersion)
	// The event-space width is part of the format: an analysis written
	// against a different stacks.NumEvents must not decode.
	buf = binary.AppendUvarint(buf, uint64(stacks.NumEvents))
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		putF(a.Baseline[e])
	}
	buf = binary.AppendUvarint(buf, uint64(a.MicroOps))
	o := &a.Opts
	buf = binary.AppendUvarint(buf, uint64(o.SegmentLength))
	putF(o.CosineThreshold)
	putB(o.PreserveUnique)
	buf = binary.AppendUvarint(buf, uint64(o.MaxStacks))
	putB(o.DisableMerge)
	// Opts.Parallelism is an execution parameter, not analysis content; it
	// is deliberately not persisted and decodes as zero.

	buf = binary.AppendUvarint(buf, uint64(len(a.Segments)))
	for i := range a.Segments {
		seg := &a.Segments[i]
		buf = binary.AppendUvarint(buf, uint64(seg.Lo))
		buf = binary.AppendUvarint(buf, uint64(seg.Hi))
		buf = binary.AppendUvarint(buf, uint64(len(seg.Stacks)))
		for j := range seg.Stacks {
			st := &seg.Stacks[j]
			nz := 0
			for e := range st.Counts {
				if st.Counts[e] != 0 {
					nz++
				}
			}
			buf = binary.AppendUvarint(buf, uint64(nz))
			for e := range st.Counts {
				if st.Counts[e] != 0 {
					buf = binary.AppendUvarint(buf, uint64(e))
					putF(st.Counts[e])
				}
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadAnalysis deserializes an analysis written by WriteAnalysis: all of
// r, decoded by DecodeAnalysis.
func ReadAnalysis(r io.Reader) (*Analysis, error) {
	raw, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading analysis: %w", err)
	}
	return DecodeAnalysis(raw)
}

// DecodeAnalysis deserializes an analysis written by WriteAnalysis from
// exactly the bytes of raw, which it does not retain. It accepts only bytes
// WriteAnalysis can produce. Errors are returned for truncation, trailing
// bytes, non-minimal varints, version or event-space mismatch, and any
// structurally impossible field: a non-finite baseline latency, invalid
// options, segment windows that do not tile [Lo[0], Lo[0]+MicroOps), and a
// stack whose sparse events are not strictly ascending or whose counts are
// not finite and positive. The decoder never panics, and every count it
// allocates is bounded by the bytes that remain.
func DecodeAnalysis(raw []byte) (*Analysis, error) {
	d := wire.NewDecoder(raw)
	d.Magic(analysisMagic)
	if ver := d.Uvarint(); d.Err() != nil {
		return nil, fmt.Errorf("core: reading analysis header: %w", d.Err())
	} else if ver != analysisVersion {
		return nil, fmt.Errorf("core: unsupported analysis version %d", ver)
	}
	if width := d.Uvarint(); d.Err() == nil && width != uint64(stacks.NumEvents) {
		return nil, fmt.Errorf("core: analysis written for %d event kinds, this build has %d",
			width, stacks.NumEvents)
	}
	a := &Analysis{}
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		a.Baseline[e] = d.Float64()
		if math.IsNaN(a.Baseline[e]) || math.IsInf(a.Baseline[e], 0) {
			return nil, fmt.Errorf("core: baseline %s latency %g is not finite", e, a.Baseline[e])
		}
	}
	mo := d.Uvarint()
	if mo > maxMicroOps {
		return nil, fmt.Errorf("core: µop count %d exceeds limit", mo)
	}
	a.MicroOps = int(mo)
	a.Opts.SegmentLength = int(d.Uvarint())
	a.Opts.CosineThreshold = d.Float64()
	a.Opts.PreserveUnique = d.Bool()
	a.Opts.MaxStacks = int(d.Uvarint())
	a.Opts.DisableMerge = d.Bool()
	if d.Err() != nil {
		return nil, fmt.Errorf("core: reading analysis header: %w", d.Err())
	}
	if err := a.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: decoded options invalid: %w", err)
	}

	// A segment takes at least four bytes (Lo, Hi, stack count, and one
	// stack's event count); a stack at least one; an event entry nine.
	a.Segments = make([]Segment, d.Count(maxAnalysisSegments, 4))
	for i := range a.Segments {
		if err := decodeSegment(d, &a.Segments[i]); err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		if i > 0 && a.Segments[i].Lo != a.Segments[i-1].Hi {
			return nil, fmt.Errorf("core: segment %d starts at %d, not at the previous segment's end %d",
				i, a.Segments[i].Lo, a.Segments[i-1].Hi)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	if n := len(a.Segments); n > 0 && a.Segments[n-1].Hi-a.Segments[0].Lo != a.MicroOps ||
		n == 0 && a.MicroOps != 0 {
		return nil, fmt.Errorf("core: segments do not cover the analysis's %d µops", a.MicroOps)
	}
	return a, nil
}

// decodeSegment decodes one segment's window and representative stacks.
func decodeSegment(d *wire.Decoder, seg *Segment) error {
	lo, hi := d.Uvarint(), d.Uvarint()
	if d.Err() == nil && (lo >= hi || hi > maxMicroOps) {
		return fmt.Errorf("invalid window [%d, %d)", lo, hi)
	}
	seg.Lo, seg.Hi = int(lo), int(hi)
	ns := d.Count(maxSegmentStacks, 1)
	if d.Err() == nil && ns == 0 {
		return fmt.Errorf("no stacks")
	}
	seg.Stacks = make([]stacks.Stack, ns)
	for j := range seg.Stacks {
		st := &seg.Stacks[j]
		nz := d.Count(uint64(stacks.NumEvents), 9)
		next := uint64(0) // the least event index the next entry may name
		for k := 0; k < nz; k++ {
			ev := d.Uvarint()
			if d.Err() == nil && (ev < next || ev >= uint64(stacks.NumEvents)) {
				return fmt.Errorf("stack %d: event %d out of order or range", j, ev)
			}
			next = ev + 1
			c := d.Float64()
			if d.Err() != nil {
				break
			}
			if !(c > 0 && c <= math.MaxFloat64) { // NaN fails both
				return fmt.Errorf("stack %d: %s count %g is not finite and positive", j, stacks.Event(ev), c)
			}
			st.Counts[ev] = c
		}
	}
	return d.Err()
}
