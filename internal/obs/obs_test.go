package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a monotonic clock ticking one millisecond per call.
func fakeClock() func() time.Duration {
	var n int64
	return func() time.Duration {
		n++
		return time.Duration(n) * time.Millisecond
	}
}

func TestSpanRecording(t *testing.T) {
	tr := NewTracer(8, WithClock(fakeClock()))
	root := tr.Start("dse", "sweep")
	root.SetDetail("graph")
	root.SetArg("points", 12)
	child := tr.StartChild(root.ID(), "dse", "chunk")
	child.SetTID(3)
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(recs))
	}
	// Completion order: child first.
	c, r := recs[0], recs[1]
	if c.Name != "chunk" || c.Parent != r.ID || c.TID != 3 {
		t.Errorf("child record %+v: want name=chunk parent=%d tid=3", c, r.ID)
	}
	if r.Name != "sweep" || r.Detail != "graph" || r.ArgKey != "points" || r.Arg != 12 {
		t.Errorf("root record %+v: want sweep/graph/points=12", r)
	}
	// Fake clock: root start=1ms, child start=2ms end=3ms, root end=4ms.
	if c.Start != 2*time.Millisecond || c.Dur != time.Millisecond {
		t.Errorf("child timing %v+%v, want 2ms+1ms", c.Start, c.Dur)
	}
	if r.Start != time.Millisecond || r.Dur != 3*time.Millisecond {
		t.Errorf("root timing %v+%v, want 1ms+3ms", r.Start, r.Dur)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("dropped %d, want 0", got)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4, WithClock(fakeClock()))
	for i := 0; i < 10; i++ {
		sp := tr.Start("t", "op")
		sp.SetArg("i", int64(i))
		sp.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want capacity 4", len(recs))
	}
	for k, rec := range recs {
		if want := int64(6 + k); rec.Arg != want {
			t.Errorf("record %d has arg %d, want %d (oldest-first tail)", k, rec.Arg, want)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("dropped %d, want 6", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "y")
	sp.SetTID(1)
	sp.SetArg("k", 2)
	sp.SetDetail("d")
	sp.Rename("z")
	if d := sp.End(); d != 0 {
		t.Errorf("inert span End returned %v", d)
	}
	if recs := tr.Snapshot(); recs != nil {
		t.Errorf("nil tracer snapshot: %v", recs)
	}

	if n := testing.AllocsPerRun(200, func() {
		s := tr.StartChild(0, "dse", "chunk")
		s.SetTID(0)
		s.SetArg("points", 1)
		s.End()
	}); n != 0 {
		t.Errorf("disabled tracer span cycle allocates %.1f per run, want 0", n)
	}
}

func TestEnabledTracerSpanCycleAllocFree(t *testing.T) {
	tr := NewTracer(64)
	if n := testing.AllocsPerRun(200, func() {
		s := tr.Start("dse", "chunk")
		s.SetTID(0)
		s.SetArg("points", 8)
		s.End()
	}); n != 0 {
		t.Errorf("enabled tracer span cycle allocates %.1f per run, want 0 (ring is pre-allocated)", n)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer(8, WithClock(fakeClock()))
	sp := tr.Start("t", "op")
	sp.End()
	sp.End()
	if recs := tr.Snapshot(); len(recs) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(recs))
	}
}

func TestOnEndHook(t *testing.T) {
	var seen []Record
	tr := NewTracer(8, WithClock(fakeClock()), WithOnEnd(func(r Record) { seen = append(seen, r) }))
	sp := tr.Start("dse", "chunk")
	sp.SetArg(ArgPoints, 7)
	sp.End()
	if len(seen) != 1 || seen[0].Arg != 7 {
		t.Fatalf("onEnd saw %+v, want one chunk record with arg 7", seen)
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	tr := NewTracer(8, WithClock(fakeClock()))
	root := tr.Start("dse", "sweep")
	ch := tr.StartChild(root.ID(), "dse", "chunk")
	ch.SetTID(2)
	ch.SetArg("points", 5)
	ch.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(parsed.TraceEvents))
	}
	chunk := parsed.TraceEvents[0]
	if chunk.Name != "chunk" || chunk.Ph != "X" || chunk.TID != 2 {
		t.Errorf("chunk event %+v: want name=chunk ph=X tid=2", chunk)
	}
	if chunk.TS != 2000 || chunk.Dur != 1000 {
		t.Errorf("chunk event ts=%g dur=%g, want 2000/1000 µs", chunk.TS, chunk.Dur)
	}
	if got, ok := chunk.Args["points"].(float64); !ok || got != 5 {
		t.Errorf("chunk args %v: want points=5", chunk.Args)
	}
}

func TestWriteFoldedSelfTime(t *testing.T) {
	tr := NewTracer(8, WithClock(fakeClock()))
	root := tr.Start("dse", "sweep") // start=1
	c1 := tr.StartChild(root.ID(), "dse", "chunk")
	c1.End() // 2..3: dur 1ms
	c2 := tr.StartChild(root.ID(), "dse", "chunk")
	c2.End()   // 4..5: dur 1ms
	root.End() // 1..6: dur 5ms, self 3ms

	var buf bytes.Buffer
	if err := WriteFolded(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "dse:sweep 3000\ndse:sweep;dse:chunk 2000\n"
	if got != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", got, want)
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, 100, time.Hour) // interval never elapses: only completion prints
	base := time.Unix(0, 0)
	tick := 0
	p.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
	p.start, p.lastPrint = base, base

	p.Observe(Record{Cat: CatDSE, Name: NameResume, Arg: 20})
	p.Observe(Record{Cat: CatDSE, Name: NameChunk, Arg: 30})
	p.Observe(Record{Cat: "other", Name: NameChunk, Arg: 999}) // foreign cat ignored
	if buf.Len() != 0 {
		t.Fatalf("premature progress output: %q", buf.String())
	}
	p.Observe(Record{Cat: CatDSE, Name: NameChunk, Arg: 50}) // reaches total: prints
	line := buf.String()
	if !strings.Contains(line, "100/100 points") || !strings.Contains(line, "resumed 1 chunks (20 pts)") {
		t.Errorf("completion line %q: want 100/100 and resumed 1 chunks (20 pts)", line)
	}
	// Flush after the completion print is a no-op: the final line was
	// already written at this done count.
	buf.Reset()
	p.Flush()
	if buf.Len() != 0 {
		t.Errorf("duplicate flush line %q", buf.String())
	}

	// A meter that never reached a print still flushes its final state.
	var buf2 bytes.Buffer
	q := NewProgress(&buf2, 100, time.Hour)
	q.now = p.now
	q.start, q.lastPrint = base, base
	q.Observe(Record{Cat: CatDSE, Name: NameChunk, Arg: 40})
	if buf2.Len() != 0 {
		t.Fatalf("premature progress output: %q", buf2.String())
	}
	q.Flush()
	if !strings.Contains(buf2.String(), "40/100 points") {
		t.Errorf("flush line %q: want 40/100 points", buf2.String())
	}
}
