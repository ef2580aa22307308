package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/stacks"
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
)

// WriteAnalysis serializes the analysis in the canonical binary form.
func WriteAnalysis(w io.Writer, a *Analysis) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(analysisMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putF := func(v float64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, err := bw.Write(b[:])
		return err
	}
	putB := func(v bool) error {
		b := byte(0)
		if v {
			b = 1
		}
		return bw.WriteByte(b)
	}
	if err := putU(analysisVersion); err != nil {
		return err
	}
	// The event-space width is part of the format: an analysis written
	// against a different stacks.NumEvents must not decode.
	if err := putU(uint64(stacks.NumEvents)); err != nil {
		return err
	}
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if err := putF(a.Baseline[e]); err != nil {
			return err
		}
	}
	if err := putU(uint64(a.MicroOps)); err != nil {
		return err
	}
	o := &a.Opts
	if err := putU(uint64(o.SegmentLength)); err != nil {
		return err
	}
	if err := putF(o.CosineThreshold); err != nil {
		return err
	}
	if err := putB(o.PreserveUnique); err != nil {
		return err
	}
	if err := putU(uint64(o.MaxStacks)); err != nil {
		return err
	}
	if err := putB(o.DisableMerge); err != nil {
		return err
	}
	// Opts.Parallelism is an execution parameter, not analysis content; it
	// is deliberately not persisted and decodes as zero.

	if err := putU(uint64(len(a.Segments))); err != nil {
		return err
	}
	for i := range a.Segments {
		seg := &a.Segments[i]
		if err := putU(uint64(seg.Lo)); err != nil {
			return err
		}
		if err := putU(uint64(seg.Hi)); err != nil {
			return err
		}
		if err := putU(uint64(len(seg.Stacks))); err != nil {
			return err
		}
		for j := range seg.Stacks {
			st := &seg.Stacks[j]
			nz := 0
			for e := range st.Counts {
				if st.Counts[e] != 0 {
					nz++
				}
			}
			if err := putU(uint64(nz)); err != nil {
				return err
			}
			for e := range st.Counts {
				if st.Counts[e] == 0 {
					continue
				}
				if err := putU(uint64(e)); err != nil {
					return err
				}
				if err := putF(st.Counts[e]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadAnalysis deserializes an analysis written by WriteAnalysis. Errors
// are returned for truncation, version or event-space mismatch, and any
// structurally impossible field, among them a non-finite baseline latency
// and a negative or non-finite stack count. The decoder never panics and
// grows its buffers incrementally rather than trusting untrusted counts.
func ReadAnalysis(r io.Reader) (*Analysis, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(analysisMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("core: reading analysis header: %w", err)
	}
	if string(head) != analysisMagic {
		return nil, fmt.Errorf("core: bad analysis magic %q", head)
	}
	getU := func() (uint64, error) { return binary.ReadUvarint(br) }
	getF := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	getB := func() (bool, error) {
		b, err := br.ReadByte()
		if err != nil {
			return false, err
		}
		if b > 1 {
			return false, fmt.Errorf("core: invalid boolean byte %d", b)
		}
		return b == 1, nil
	}

	ver, err := getU()
	if err != nil {
		return nil, fmt.Errorf("core: reading analysis version: %w", err)
	}
	if ver != analysisVersion {
		return nil, fmt.Errorf("core: unsupported analysis version %d", ver)
	}
	width, err := getU()
	if err != nil {
		return nil, err
	}
	if width != uint64(stacks.NumEvents) {
		return nil, fmt.Errorf("core: analysis written for %d event kinds, this build has %d",
			width, stacks.NumEvents)
	}
	a := &Analysis{}
	for e := stacks.Event(0); e < stacks.NumEvents; e++ {
		if a.Baseline[e], err = getF(); err != nil {
			return nil, fmt.Errorf("core: reading baseline: %w", err)
		}
		if math.IsNaN(a.Baseline[e]) || math.IsInf(a.Baseline[e], 0) {
			return nil, fmt.Errorf("core: baseline %s latency %g is not finite", e, a.Baseline[e])
		}
	}
	mo, err := getU()
	if err != nil {
		return nil, err
	}
	if mo > 1<<40 {
		return nil, fmt.Errorf("core: µop count %d exceeds limit", mo)
	}
	a.MicroOps = int(mo)
	segLen, err := getU()
	if err != nil {
		return nil, err
	}
	a.Opts.SegmentLength = int(segLen)
	if a.Opts.CosineThreshold, err = getF(); err != nil {
		return nil, err
	}
	if a.Opts.PreserveUnique, err = getB(); err != nil {
		return nil, err
	}
	maxStacks, err := getU()
	if err != nil {
		return nil, err
	}
	a.Opts.MaxStacks = int(maxStacks)
	if a.Opts.DisableMerge, err = getB(); err != nil {
		return nil, err
	}
	if err := a.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: decoded options invalid: %w", err)
	}

	nseg, err := getU()
	if err != nil {
		return nil, err
	}
	if nseg > maxAnalysisSegments {
		return nil, fmt.Errorf("core: segment count %d exceeds limit", nseg)
	}
	capHint := nseg
	if capHint > 1<<12 {
		capHint = 1 << 12
	}
	a.Segments = make([]Segment, 0, capHint)
	for i := uint64(0); i < nseg; i++ {
		var seg Segment
		lo, err := getU()
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		hi, err := getU()
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		if lo >= hi || hi > 1<<40 {
			return nil, fmt.Errorf("core: segment %d: invalid window [%d, %d)", i, lo, hi)
		}
		seg.Lo, seg.Hi = int(lo), int(hi)
		ns, err := getU()
		if err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
		if ns == 0 || ns > maxSegmentStacks {
			return nil, fmt.Errorf("core: segment %d: stack count %d out of range", i, ns)
		}
		stCap := ns
		if stCap > 1<<8 {
			stCap = 1 << 8
		}
		seg.Stacks = make([]stacks.Stack, 0, stCap)
		for j := uint64(0); j < ns; j++ {
			var st stacks.Stack
			nz, err := getU()
			if err != nil {
				return nil, fmt.Errorf("core: segment %d stack %d: %w", i, j, err)
			}
			if nz > uint64(stacks.NumEvents) {
				return nil, fmt.Errorf("core: segment %d stack %d: %d non-zero events", i, j, nz)
			}
			for k := uint64(0); k < nz; k++ {
				ev, err := getU()
				if err != nil {
					return nil, fmt.Errorf("core: segment %d stack %d: %w", i, j, err)
				}
				if ev >= uint64(stacks.NumEvents) {
					return nil, fmt.Errorf("core: segment %d stack %d: event %d out of range", i, j, ev)
				}
				c, err := getF()
				if err != nil {
					return nil, fmt.Errorf("core: segment %d stack %d: %w", i, j, err)
				}
				if !(c >= 0 && c <= math.MaxFloat64) { // NaN fails both
					return nil, fmt.Errorf("core: segment %d stack %d: %s count %g is not a finite non-negative value",
						i, j, stacks.Event(ev), c)
				}
				st.Counts[ev] = c
			}
			seg.Stacks = append(seg.Stacks, st)
		}
		a.Segments = append(a.Segments, seg)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing bytes after analysis")
	}
	return a, nil
}
