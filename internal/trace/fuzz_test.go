package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// fuzzSeedTrace builds a small hand-made trace exercising every encoded
// field class: flags, op classes, hierarchy levels, dependency references
// and timestamps.
func fuzzSeedTrace() *trace.Trace {
	t := &trace.Trace{Cycles: 57, Mispredicts: 1}
	r0 := trace.Record{
		Seq: 0, MacroSeq: 0, SoM: true, EoM: false,
		Class: isa.Load, PC: 0x400000, Addr: 0x7fff0010,
		NewFetchLine: true, FetchLevel: mem.LvlL2, ITLBMiss: true,
		DataLevel: mem.LvlMem, DTLBMiss: true,
	}
	r1 := trace.Record{
		Seq: 1, MacroSeq: 0, SoM: false, EoM: true,
		Class: isa.FpDiv, PC: 0x400004, Mispredicted: true,
		FetchLevel: mem.LvlL1,
	}
	for i := range r0.T {
		r0.T[i] = int64(i)
		r1.T[i] = int64(10 + i)
	}
	r0.SrcDep1, r0.SrcDep2, r0.AddrDep = trace.None, trace.None, trace.None
	r0.ShareWith, r0.IQFreeBy, r0.RegFreeBy = trace.None, trace.None, trace.None
	r0.MSHRFreeBy, r0.FUFreeBy = trace.None, trace.None
	r1 = r0
	r1.Seq, r1.Class, r1.SoM, r1.EoM = 1, isa.FpDiv, false, true
	r1.SrcDep1 = 0
	t.Records = append(t.Records, r0, r1)
	return t
}

// FuzzTraceRoundTrip feeds arbitrary bytes to the binary trace decoder.
// Malformed input may only produce an error — never a panic or an oversized
// allocation — and any input that decodes must be exactly what Write
// writes for the decoded trace: the encoding is canonical, so a trace's
// bytes and its digest name one content.
func FuzzTraceRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := trace.Write(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	if err := trace.Write(&empty, &trace.Trace{}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("RPTRC"))                 // header only
	f.Add([]byte("XXTRC\x01\x00\x00\x00")) // bad magic
	// Claims 2^30 records but carries none: must error, not allocate.
	f.Add(append([]byte("RPTRC\x01"), 0x80, 0x80, 0x80, 0x80, 0x04))
	f.Add(overflowingVarint())
	f.Add(cutMidVarint(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("decoded %d bytes that re-encode to %d different bytes", len(data), buf.Len())
		}
	})
}

// nonCanonical holds traces Write never produces: a lenient decoder would
// read each as a trace that Write encodes differently. The fuzz corpus
// (testdata/fuzz/FuzzTraceRoundTrip) holds them too.
var nonCanonical = map[string][]byte{
	// The mispredict count 0 as the two-byte varint 0x80 0x00.
	"overlong varint": []byte("RPTRC\x01\x00\x00\x80\x00"),
	// One all-zero record whose flags set bit 6, which no field owns.
	"undefined flag bit": append([]byte("RPTRC\x01\x01\x00\x00\x00\x00\x40"), make([]byte, 17)...),
}

// overflowingVarint is a one-record trace whose first field is an 11-byte
// varint, past the 64-bit range, padded so the record count fits the
// payload.
func overflowingVarint() []byte {
	b := []byte("RPTRC\x01\x01\x00\x00")
	for i := 0; i < 10; i++ {
		b = append(b, 0xff)
	}
	b = append(b, 0x01)
	return append(b, make([]byte, 19)...)
}

// cutMidVarint is the seed trace with its last timestamp made a
// multi-byte varint, cut one byte before that varint ends.
func cutMidVarint(tb testing.TB) []byte {
	tr := fuzzSeedTrace()
	tr.Records[1].T[trace.NumStages-1] = 1 << 40
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-1]
}
