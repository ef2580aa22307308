package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/mem"
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
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return Decode(raw)
}

// maxRecords caps the record count a header may claim.
const maxRecords = 1 << 31

// Decode deserializes a trace written by Write from exactly the bytes of
// raw, which it does not retain. Truncated input, overflowing varints and
// trailing bytes are errors.
func Decode(raw []byte) (*Trace, error) {
	if len(raw) < len(magic) {
		return nil, fmt.Errorf("trace: reading header: %w", io.ErrUnexpectedEOF)
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", raw[:len(magic)])
	}
	d := decoder{buf: raw[len(magic):]}
	if ver := d.uvarint(); d.err != nil {
		return nil, fmt.Errorf("trace: header: %w", d.err)
	} else if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	n := d.uvarint()
	cycles := d.varint()
	mispredicts := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("trace: header: %w", d.err)
	}
	// The count is untrusted: it must fit the cap and the bytes that
	// remain, since every record takes at least recordVarints of them.
	if n > maxRecords || n > uint64(len(d.buf)/recordVarints) {
		return nil, fmt.Errorf("trace: record count %d exceeds limit or payload", n)
	}
	t := &Trace{Records: make([]Record, n), Cycles: cycles, Mispredicts: mispredicts}
	for i := range t.Records {
		d.record(&t.Records[i])
		if d.err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, d.err)
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes", len(d.buf))
	}
	return t, nil
}

// decoder reads varints off a byte slice. The first failure sticks: later
// reads return zero, and err holds the failure.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(n)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// fail records why a varint did not decode: n == 0 is a short buffer,
// n < 0 an overflow.
func (d *decoder) fail(n int) {
	if d.err == nil {
		if n == 0 {
			d.err = io.ErrUnexpectedEOF
		} else {
			d.err = errOverflow
		}
	}
	d.buf = nil
}

var errOverflow = errors.New("varint overflows a 64-bit integer")

// record decodes one record into rec.
func (d *decoder) record(rec *Record) {
	rec.Seq = d.uvarint()
	rec.MacroSeq = d.uvarint()
	flags := d.uvarint()
	rec.PC = d.uvarint()
	rec.Addr = d.uvarint()
	rec.SoM = flags&(1<<0) != 0
	rec.EoM = flags&(1<<1) != 0
	rec.NewFetchLine = flags&(1<<2) != 0
	rec.ITLBMiss = flags&(1<<3) != 0
	rec.DTLBMiss = flags&(1<<4) != 0
	rec.Mispredicted = flags&(1<<5) != 0
	rec.Class = isa.OpClass(flags >> 8 & 0xff)
	rec.FetchLevel = mem.Level(flags >> 16 & 0xf)
	rec.DataLevel = mem.Level(flags >> 20 & 0xf)
	rec.SrcDep1 = d.varint()
	rec.SrcDep2 = d.varint()
	rec.AddrDep = d.varint()
	rec.ShareWith = d.varint()
	rec.IQFreeBy = d.varint()
	rec.RegFreeBy = d.varint()
	rec.MSHRFreeBy = d.varint()
	rec.FUFreeBy = d.varint()
	for j := range rec.T {
		rec.T[j] = d.varint()
	}
}
