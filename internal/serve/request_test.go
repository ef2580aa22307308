package serve

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyTraceB64 simulates a few hundred µops and returns the base64 RPTRC
// encoding plus the trace's digest, for the upload-path cases.
func tinyTraceB64(t *testing.T) (string, string) {
	t.Helper()
	prof, ok := workload.ByName("429.mcf")
	if !ok {
		t.Fatal("workload missing")
	}
	uops := workload.Stream(prof, 1, 400)
	sim, err := cpu.New(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(uops)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), trace.Digest(tr)
}

func TestParseJobRequestRejections(t *testing.T) {
	traceB64, _ := tinyTraceB64(t)
	raw, err := base64.StdEncoding.DecodeString(traceB64)
	if err != nil {
		t.Fatal(err)
	}
	// The same trace with its last varint spelled one byte longer: bytes
	// trace.Write never writes.
	overlong := append(raw[:len(raw)-1:len(raw)-1], raw[len(raw)-1]|0x80, 0x00)
	cases := []struct {
		name string
		body string
		lim  func(*Limits)
		want string // substring of the error
	}{
		{name: "not json", body: `{nope`, want: "decoding"},
		{name: "trailing data", body: `{"workload":"429.mcf","axes":["L2D=8"]} extra`, want: "trailing"},
		{name: "unknown field", body: `{"workload":"429.mcf","axes":["L2D=8"],"bogus":1}`, want: "bogus"},
		{name: "no subject", body: `{"axes":["L2D=8"]}`, want: "workload name or a trace_b64"},
		{name: "both subjects", body: fmt.Sprintf(`{"workload":"429.mcf","trace_b64":%q,"axes":["L2D=8"]}`, traceB64), want: "mutually exclusive"},
		{name: "unknown workload", body: `{"workload":"999.nope","axes":["L2D=8"]}`, want: "unknown workload"},
		{name: "unknown engine", body: `{"workload":"429.mcf","axes":["L2D=8"],"engine":"oracle"}`, want: "unknown engine"},
		{name: "sim with upload", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"],"engine":"sim"}`, traceB64), want: "named workload"},
		{name: "no axes", body: `{"workload":"429.mcf","axes":[]}`, want: "at least one axis"},
		{name: "malformed axis", body: `{"workload":"429.mcf","axes":["L2D"]}`, want: "axis"},
		{name: "unknown axis event", body: `{"workload":"429.mcf","axes":["Warp=8"]}`, want: "unknown event"},
		{name: "duplicate axes", body: `{"workload":"429.mcf","axes":["L2D=8","L2D=12"]}`, want: "duplicate axis"},
		{name: "too many axes", body: `{"workload":"429.mcf","axes":["L2D=8","MemD=8","L1D=8"]}`,
			lim: func(l *Limits) { l.MaxAxes = 2 }, want: "axes exceed"},
		{name: "too many axis values", body: `{"workload":"429.mcf","axes":["L2D=1,2,3,4,5"]}`,
			lim: func(l *Limits) { l.MaxAxisValues = 4 }, want: "values, limit"},
		{name: "grid too big", body: `{"workload":"429.mcf","axes":["L2D=1,2,3,4","MemD=1,2,3"]}`,
			lim: func(l *Limits) { l.MaxGridPoints = 10 }, want: "grid exceeds"},
		{name: "negative top", body: `{"workload":"429.mcf","axes":["L2D=8"],"top":-1}`, want: "negative top"},
		{name: "top over cap", body: `{"workload":"429.mcf","axes":["L2D=8"],"top":5000}`, want: "top 5000 exceeds"},
		{name: "negative timeout", body: `{"workload":"429.mcf","axes":["L2D=8"],"timeout_ms":-5}`, want: "negative timeout"},
		{name: "timeout over cap", body: `{"workload":"429.mcf","axes":["L2D=8"],"timeout_ms":86400000}`, want: "exceeds the limit"},
		{name: "negative parallelism", body: `{"workload":"429.mcf","axes":["L2D=8"],"parallelism":-2}`, want: "negative parallelism"},
		{name: "parallelism over cap", body: `{"workload":"429.mcf","axes":["L2D=8"],"parallelism":9999}`, want: "parallelism 9999 exceeds"},
		{name: "negative batch_size", body: `{"workload":"429.mcf","axes":["L2D=8"],"batch_size":-4}`, want: "negative batch_size"},
		{name: "batch_size over cap", body: `{"workload":"429.mcf","axes":["L2D=8"],"batch_size":4096}`, want: "batch_size 4096 exceeds"},
		{name: "batch_size on sim", body: `{"workload":"429.mcf","axes":["L2D=8"],"engine":"sim","batch_size":8}`, want: "no batched form"},
		{name: "negative target cpi", body: `{"workload":"429.mcf","axes":["L2D=8"],"target_cpi":-0.5}`, want: "target_cpi"},
		{name: "negative micro_ops", body: `{"workload":"429.mcf","axes":["L2D=8"],"micro_ops":-1}`, want: "negative micro_ops"},
		{name: "micro_ops over cap", body: `{"workload":"429.mcf","axes":["L2D=8"],"micro_ops":1000000}`, want: "micro_ops 1000000 exceeds"},
		{name: "micro_ops on upload", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"],"micro_ops":5}`, traceB64), want: "only apply to named workloads"},
		{name: "seed on upload", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"],"seed":5}`, traceB64), want: "only apply to named workloads"},
		{name: "bad base64", body: `{"trace_b64":"@@not base64@@","axes":["L2D=8"]}`, want: "trace_b64"},
		{name: "oversized upload", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"]}`, traceB64),
			lim: func(l *Limits) { l.MaxTraceBytes = 64 }, want: "exceeds the 64-byte limit"},
		{name: "corrupt trace", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"]}`,
			base64.StdEncoding.EncodeToString([]byte("not an rptrc stream at all"))), want: "trace upload"},
		{name: "non-canonical trace", body: fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8"]}`,
			base64.StdEncoding.EncodeToString(overlong)), want: "not minimally encoded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lim := DefaultLimits()
			if tc.lim != nil {
				tc.lim(&lim)
			}
			spec, err := ParseJobRequest([]byte(tc.body), lim)
			if err == nil {
				t.Fatalf("accepted invalid request: %+v", spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseJobRequestDefaults(t *testing.T) {
	lim := DefaultLimits()
	spec, err := ParseJobRequest([]byte(`{"workload":"429.mcf","axes":["L2D=8,12","MemD=150,200,280"]}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Engine != "rpstacks" {
		t.Errorf("default engine %q, want rpstacks", spec.Engine)
	}
	if spec.Top != lim.DefaultTop {
		t.Errorf("default top %d, want %d", spec.Top, lim.DefaultTop)
	}
	if spec.Timeout != lim.DefaultTimeout {
		t.Errorf("default timeout %v, want %v", spec.Timeout, lim.DefaultTimeout)
	}
	if spec.MicroOps != lim.DefaultMicroOps {
		t.Errorf("default micro_ops %d, want %d", spec.MicroOps, lim.DefaultMicroOps)
	}
	if spec.GridSize != 6 {
		t.Errorf("grid size %d, want 6", spec.GridSize)
	}
	if spec.Parallelism != 0 {
		t.Errorf("parallelism %d, want 0 (server default)", spec.Parallelism)
	}
	if spec.BatchSize != 0 {
		t.Errorf("batch_size %d, want 0 (the sweep engine's default width)", spec.BatchSize)
	}
	batched, err := ParseJobRequest([]byte(`{"workload":"429.mcf","axes":["L2D=8,12"],"engine":"graph","batch_size":32}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if batched.BatchSize != 32 {
		t.Errorf("batch_size %d, want 32", batched.BatchSize)
	}
}

func TestParseJobRequestUpload(t *testing.T) {
	traceB64, digest := tinyTraceB64(t)
	body := fmt.Sprintf(`{"trace_b64":%q,"axes":["L2D=8,12"],"engine":"graph","timeout_ms":500}`, traceB64)
	spec, err := ParseJobRequest([]byte(body), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Trace == nil || len(spec.Trace.Records) == 0 {
		t.Fatal("upload did not decode into a trace")
	}
	if spec.TraceDigest != digest {
		t.Errorf("digest %s, want %s", spec.TraceDigest, digest)
	}
	if spec.Timeout != 500*time.Millisecond {
		t.Errorf("timeout %v, want 500ms", spec.Timeout)
	}
}
