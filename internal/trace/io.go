package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/wire"
)

// Binary trace format: a magic header, the record count and cycle total,
// then one varint-packed record per µop. Written by cmd/rptrace, readable by
// any tool in the repository.
const (
	magic   = "RPTRC"
	version = 1
)

// An encoded record is recordVarints varints (Seq, MacroSeq, flags, PC,
// Addr, eight references, seven timestamps) of one to
// binary.MaxVarintLen64 bytes each.
const recordVarints = 5 + 8 + int(NumStages)

// writeChunk is how many encoded bytes Write gathers per call to the
// underlying writer.
const writeChunk = 32 << 10

// Write serializes the trace. Records are appended to one buffer that goes
// to w in chunks of about writeChunk bytes.
func Write(w io.Writer, t *Trace) error {
	buf := make([]byte, 0, writeChunk+recordVarints*binary.MaxVarintLen64)
	buf = append(buf, magic...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(t.Records)))
	buf = binary.AppendVarint(buf, t.Cycles)
	buf = binary.AppendUvarint(buf, t.Mispredicts)
	for i := range t.Records {
		buf = appendRecord(buf, &t.Records[i])
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// appendRecord appends the encoding of one record to buf.
func appendRecord(buf []byte, r *Record) []byte {
	flags := uint64(r.Class)<<8 | uint64(r.FetchLevel)<<16 | uint64(r.DataLevel)<<20
	for bit, on := range [...]bool{r.SoM, r.EoM, r.NewFetchLine, r.ITLBMiss, r.DTLBMiss, r.Mispredicted} {
		if on {
			flags |= 1 << bit
		}
	}
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.MacroSeq)
	buf = binary.AppendUvarint(buf, flags)
	buf = binary.AppendUvarint(buf, r.PC)
	buf = binary.AppendUvarint(buf, r.Addr)
	for _, v := range [...]int64{r.SrcDep1, r.SrcDep2, r.AddrDep, r.ShareWith, r.IQFreeBy, r.RegFreeBy, r.MSHRFreeBy, r.FUFreeBy} {
		buf = binary.AppendVarint(buf, v)
	}
	for _, ts := range r.T {
		buf = binary.AppendVarint(buf, ts)
	}
	return buf
}

// Read deserializes a trace written by Write: all of r, decoded by Decode.
func Read(r io.Reader) (*Trace, error) {
	raw, err := wire.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return Decode(raw)
}

// maxRecords caps the record count a header may claim.
const maxRecords = 1 << 31

// flagMask holds the flag bits appendRecord can set: the six outcome bits,
// the op class and the two hierarchy levels.
const flagMask = 0x3f | 0xff<<8 | 0xf<<16 | 0xf<<20

// Decode deserializes a trace written by Write from exactly the bytes of
// raw, which it does not retain. It accepts only bytes Write can produce:
// truncated input, non-minimal or overflowing varints, undefined flag bits
// and trailing bytes are errors.
func Decode(raw []byte) (*Trace, error) {
	d := wire.NewDecoder(raw)
	d.Magic(magic)
	if ver := d.Uvarint(); d.Err() != nil {
		return nil, fmt.Errorf("trace: header: %w", d.Err())
	} else if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	// Every record takes at least recordVarints bytes.
	n := d.Count(maxRecords, recordVarints)
	t := &Trace{Cycles: d.Varint(), Mispredicts: d.Uvarint()}
	if d.Err() != nil {
		return nil, fmt.Errorf("trace: header: %w", d.Err())
	}
	t.Records = make([]Record, n)
	for i := range t.Records {
		if err := decodeRecord(d, &t.Records[i]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// decodeRecord decodes one record into rec.
func decodeRecord(d *wire.Decoder, rec *Record) error {
	rec.Seq = d.Uvarint()
	rec.MacroSeq = d.Uvarint()
	flags := d.Uvarint()
	if flags&^flagMask != 0 {
		return fmt.Errorf("undefined flag bits %#x", flags&^flagMask)
	}
	rec.PC = d.Uvarint()
	rec.Addr = d.Uvarint()
	rec.SoM = flags&(1<<0) != 0
	rec.EoM = flags&(1<<1) != 0
	rec.NewFetchLine = flags&(1<<2) != 0
	rec.ITLBMiss = flags&(1<<3) != 0
	rec.DTLBMiss = flags&(1<<4) != 0
	rec.Mispredicted = flags&(1<<5) != 0
	rec.Class = isa.OpClass(flags >> 8 & 0xff)
	rec.FetchLevel = mem.Level(flags >> 16 & 0xf)
	rec.DataLevel = mem.Level(flags >> 20 & 0xf)
	rec.SrcDep1 = d.Varint()
	rec.SrcDep2 = d.Varint()
	rec.AddrDep = d.Varint()
	rec.ShareWith = d.Varint()
	rec.IQFreeBy = d.Varint()
	rec.RegFreeBy = d.Varint()
	rec.MSHRFreeBy = d.Varint()
	rec.FUFreeBy = d.Varint()
	for j := range rec.T {
		rec.T[j] = d.Varint()
	}
	return d.Err()
}
