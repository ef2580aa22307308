package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// Span IDs were unique only per process before WithProcessID: two workers
// both counting 1, 2, 3 would collide in a merged timeline and silently
// misparent each other's spans. Namespaced tracers must never collide with
// each other or with the default (coordinator) namespace, while the default
// keeps plain 1, 2, 3 IDs for golden-pinned single-process exports.
func TestProcessIDNamespacesSpanIDs(t *testing.T) {
	plain := NewTracer(8, WithClock(fakeClock()))
	a := NewTracer(8, WithClock(fakeClock()), WithProcessID("worker-a"))
	b := NewTracer(8, WithClock(fakeClock()), WithProcessID("worker-b"))

	seen := make(map[uint64]string)
	for name, tr := range map[string]*Tracer{"coord": plain, "a": a, "b": b} {
		for i := 0; i < 3; i++ {
			sp := tr.Start("t", "op")
			id := sp.ID()
			sp.End()
			if prev, dup := seen[id]; dup {
				t.Fatalf("span ID %#x collides between %s and %s", id, prev, name)
			}
			seen[id] = name
		}
	}
	// The default namespace is the reserved coordinator one: plain counters.
	sp := plain.Start("t", "op")
	if got := sp.ID(); got != 4 {
		t.Errorf("default-namespace ID = %d, want the plain counter 4", got)
	}
	sp.End()
	// Namespaced IDs keep the process hash in the high half across spans.
	s1 := a.Start("t", "op")
	s2 := a.Start("t", "op")
	if s1.ID()>>32 == 0 || s1.ID()>>32 != s2.ID()>>32 {
		t.Errorf("namespaced IDs %#x, %#x: want one nonzero high half", s1.ID(), s2.ID())
	}
	s1.End()
	s2.End()
}

func rec(id uint64, name string, start, dur time.Duration) Record {
	return Record{ID: id, Name: name, Cat: "fleet", Start: start, Dur: dur}
}

// MergeTimeline must normalize each worker's records by its clock sync, in
// both skew directions, and re-base the merged set to start at zero.
func TestMergeTimelineSkewNormalization(t *testing.T) {
	local := []Record{rec(1, "sweep", 10*time.Millisecond, 100*time.Millisecond)}
	// Worker "behind": its clock reads 0 when the coordinator reads 40ms.
	behind := &Fragment{
		Process: "w-behind",
		Records: []Record{rec(1<<32|1, "evaluate", 5*time.Millisecond, 10*time.Millisecond)},
		Sync:    ClockSync{T0: 2 * time.Millisecond, T1: 2 * time.Millisecond, Coord: 42 * time.Millisecond},
		HasSync: true,
	}
	// Worker "ahead": its clock reads 500ms when the coordinator reads 20ms —
	// the worker-ahead edge case; its spans must shift earlier, not later.
	ahead := &Fragment{
		Process: "w-ahead",
		Records: []Record{rec(2<<32|1, "evaluate", 510*time.Millisecond, 10*time.Millisecond)},
		Sync:    ClockSync{T0: 500 * time.Millisecond, T1: 500 * time.Millisecond, Coord: 20 * time.Millisecond},
		HasSync: true,
	}
	tl := MergeTimeline("coord", local, []*Fragment{ahead, behind})
	if len(tl.Tracks) != 3 {
		t.Fatalf("merged %d tracks, want 3", len(tl.Tracks))
	}
	// Track order: merging process first, workers sorted by name.
	for i, want := range []string{"coord", "w-ahead", "w-behind"} {
		if tl.Tracks[i].Name != want {
			t.Fatalf("track %d = %q, want %q", i, tl.Tracks[i].Name, want)
		}
	}
	// On the coordinator timebase: local sweep at 10ms, behind's evaluate at
	// 5+40=45ms, ahead's evaluate at 510-480=30ms. Minimum is 10ms, so after
	// re-basing: coord 0ms, ahead 20ms, behind 35ms.
	if got := tl.Tracks[0].Records[0].Start; got != 0 {
		t.Errorf("coord span starts at %v, want 0 after re-basing", got)
	}
	if got := tl.Tracks[1].Records[0].Start; got != 20*time.Millisecond {
		t.Errorf("ahead span starts at %v, want 20ms", got)
	}
	if got := tl.Tracks[2].Records[0].Start; got != 35*time.Millisecond {
		t.Errorf("behind span starts at %v, want 35ms", got)
	}
	if got := len(tl.Flatten()); got != 3 {
		t.Errorf("Flatten returned %d records, want 3", got)
	}
}

// Skew far larger than any span's duration must still land the worker's track
// where the sync says, and a skew that maps worker spans before the
// coordinator's epoch re-bases the whole timeline instead of going negative.
func TestMergeTimelineSkewLargerThanChunk(t *testing.T) {
	local := []Record{rec(1, "sweep", 100*time.Millisecond, 20*time.Millisecond)}
	// Worker clock an hour ahead; its 5ms chunk would land at -59m59s+...
	// on the raw coordinator timebase.
	frag := &Fragment{
		Process: "w",
		Records: []Record{rec(1<<32|1, "evaluate", time.Hour, 5*time.Millisecond)},
		Sync:    ClockSync{T0: time.Hour, T1: time.Hour, Coord: 10 * time.Millisecond},
		HasSync: true,
	}
	tl := MergeTimeline("coord", local, []*Fragment{frag})
	// Worker span maps to coord time 10ms, before the local span's 100ms:
	// re-basing shifts the worker to 0 and the coordinator to 90ms.
	if got := tl.Tracks[1].Records[0].Start; got != 0 {
		t.Errorf("worker span starts at %v, want 0", got)
	}
	if got := tl.Tracks[0].Records[0].Start; got != 90*time.Millisecond {
		t.Errorf("coord span starts at %v, want 90ms", got)
	}
	for _, r := range tl.Flatten() {
		if r.Start < 0 {
			t.Errorf("record %q starts at %v: negative timestamps must never survive the merge", r.Name, r.Start)
		}
	}
}

// A process with several fragments merges into ONE track normalized by its
// most recent sync (largest T0) — the only sync guaranteed to reference the
// live coordinator's epoch after a coordinator restart. Fragments without
// any sync merge at offset zero.
func TestMergeTimelineLatestSyncWinsAndNoSync(t *testing.T) {
	old := &Fragment{
		Process: "w",
		Records: []Record{rec(1<<32|1, "evaluate", 10*time.Millisecond, time.Millisecond)},
		// Stale sync from before a coordinator restart: huge offset.
		Sync:    ClockSync{T0: 1 * time.Millisecond, T1: 1 * time.Millisecond, Coord: time.Hour},
		HasSync: true,
	}
	fresh := &Fragment{
		Process: "w",
		Records: []Record{rec(1<<32|2, "evaluate", 20*time.Millisecond, time.Millisecond)},
		Sync:    ClockSync{T0: 15 * time.Millisecond, T1: 15 * time.Millisecond, Coord: 18 * time.Millisecond},
		HasSync: true,
	}
	tl := MergeTimeline("coord", nil, []*Fragment{old, fresh})
	if len(tl.Tracks) != 2 {
		t.Fatalf("merged %d tracks, want 2 (coord + one per process)", len(tl.Tracks))
	}
	wt := tl.Tracks[1]
	if len(wt.Records) != 2 {
		t.Fatalf("worker track has %d records, want both fragments' spans", len(wt.Records))
	}
	// Fresh sync offset is +3ms; minimum start is then 13ms, re-based to 0.
	if got := wt.Records[0].Start; got != 0 {
		t.Errorf("first span starts at %v, want 0 (fresh sync, not the stale hour offset)", got)
	}
	if got := wt.Records[1].Start; got != 10*time.Millisecond {
		t.Errorf("second span starts at %v, want 10ms", got)
	}

	nosync := &Fragment{Process: "n", Records: []Record{rec(3<<32|1, "evaluate", 7*time.Millisecond, time.Millisecond)}}
	tl2 := MergeTimeline("coord", nil, []*Fragment{nosync, nil})
	if got := tl2.Tracks[1].Records[0].Start; got != 0 {
		t.Errorf("sync-less span starts at %v, want 0 (offset zero, then re-based)", got)
	}
}

// WriteChromeTimeline renders one trace process per track: a process_name
// metadata event naming it and its spans under that PID — the shape Perfetto
// shows as per-worker swim-lanes.
func TestWriteChromeTimeline(t *testing.T) {
	tl := &Timeline{Tracks: []ProcessTrack{
		{Name: "coord", Records: []Record{
			{ID: 1, Cat: "fleet", Name: "sweep", Detail: "abc", Start: 0, Dur: 10 * time.Millisecond, ArgKey: "points", Arg: 12},
		}},
		{Name: "worker-a", Records: []Record{
			{ID: 1<<32 | 1, Parent: 1, Cat: "fleet", Name: "evaluate", Start: time.Millisecond, Dur: 2 * time.Millisecond, TID: 1},
		}},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTimeline(&buf, tl); err != nil {
		t.Fatalf("export: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("exported %d events, want 2 metadata + 2 spans", len(out.TraceEvents))
	}
	names := map[int]string{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name != "process_name" {
				t.Errorf("metadata event named %q, want process_name", ev.Name)
			}
			names[ev.PID] = fmt.Sprint(ev.Args["name"])
		}
	}
	if names[1] != "coord" || names[2] != "worker-a" {
		t.Errorf("process names = %v, want PID 1 coord / PID 2 worker-a", names)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "sweep":
			if ev.PID != 1 || ev.Dur != 10000 || ev.Args["points"] != float64(12) || ev.Args["detail"] != "abc" {
				t.Errorf("sweep event %+v: wrong pid/dur/args", ev)
			}
		case "evaluate":
			if ev.PID != 2 || ev.TID != 1 || ev.TS != 1000 {
				t.Errorf("evaluate event %+v: want pid 2 tid 1 ts 1000", ev)
			}
			if ev.Args["parent"] != float64(1) {
				t.Errorf("evaluate parent arg = %v, want 1 (cross-process parent survives)", ev.Args["parent"])
			}
		default:
			t.Errorf("unexpected span %q", ev.Name)
		}
	}
}
