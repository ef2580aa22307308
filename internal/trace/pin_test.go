package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// gccTraceDigest pins trace.Digest of a fixed simulated trace: 403.gcc,
// stream seed 42, 10k µops on the baseline machine. The round-trip tests
// pass for any self-consistent format; this pin holds the encoding's bytes
// themselves, which are the content address of every served trace.
const gccTraceDigest = "ecab18243274dde423f065f9ad77d6a2a135511dc57ea3bbdfc4225c44b12879"

func gccTrace(t testing.TB) *trace.Trace {
	t.Helper()
	prof, ok := workload.ByName("403.gcc")
	if !ok {
		t.Fatal("403.gcc: no such workload")
	}
	sim, err := cpu.New(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(workload.Stream(prof, 42, 10000))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEncodingPinned(t *testing.T) {
	tr := gccTrace(t)
	if got := trace.Digest(tr); got != gccTraceDigest {
		t.Fatalf("403.gcc trace digest %s, want %s", got, gccTraceDigest)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatal("Decode(Write(trace)) differs from the trace")
	}
}

// TestDecodeRejectsPrefixes: every strict prefix of a valid encoding is
// an error, as are trailing bytes, an overflowing varint, a record cut
// mid-varint and every non-canonical encoding.
func TestDecodeRejectsPrefixes(t *testing.T) {
	tr := gccTrace(t)
	tr.Records = tr.Records[:60]
	for _, x := range []*trace.Trace{tr, fuzzSeedTrace(), {}} {
		var buf bytes.Buffer
		if err := trace.Write(&buf, x); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if _, err := trace.Decode(raw); err != nil {
			t.Fatalf("full encoding of %d records rejected: %v", len(x.Records), err)
		}
		for n := 0; n < len(raw); n++ {
			if _, err := trace.Decode(raw[:n]); err == nil {
				t.Fatalf("%d-record trace: prefix of %d of %d bytes accepted", len(x.Records), n, len(raw))
			}
		}
		if _, err := trace.Decode(append(raw[:len(raw):len(raw)], 0)); err == nil {
			t.Fatalf("%d-record trace: trailing byte accepted", len(x.Records))
		}
	}
	bad := map[string][]byte{
		"overflowing varint": overflowingVarint(),
		"cut mid-varint":     cutMidVarint(t),
	}
	for name, raw := range nonCanonical {
		bad[name] = raw
	}
	for name, raw := range bad {
		if _, err := trace.Decode(raw); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
