package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// runOneJob brings up a Server over the given durable store, runs one
// acceptance job through HTTP, shuts everything down, and returns the
// result. Each call is one complete service lifetime.
func runOneJob(t *testing.T, durable *store.Store) *JobResult {
	t.Helper()
	s := New(Config{Workers: 2, SweepParallelism: 2, Store: durable})
	ts := httptest.NewServer(s)
	defer ts.Close()
	v, code := submitJob(t, ts.URL, testBody(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	v = pollJob(t, ts.URL, v.ID)
	if v.Status != JobDone {
		t.Fatalf("job status %s (error %q), want done", v.Status, v.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return v.Result
}

// pointsJSON canonicalizes a result's ranked points for byte comparison.
func pointsJSON(t *testing.T, res *JobResult) string {
	t.Helper()
	b, err := json.Marshal(res.Points)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreSurvivesRestart is the durable tier's end-to-end acceptance
// test: one service lifetime populates the store, a second lifetime over
// the same directory serves the same job without re-paying any setup —
// SetupCached is reported, the store counts the hits and the saved cost,
// and the ranked sweep result is byte-identical to the first run's.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := runOneJob(t, st1)
	if first.SetupCached {
		t.Fatal("first lifetime reported cached setup on an empty store")
	}
	if got := st1.Len(); got != 3 {
		t.Fatalf("store holds %d entries after first lifetime, want 3 (trace + analysis + journal slot)", got)
	}

	// A fresh process over the same directory: nothing in memory, everything
	// on disk.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second := runOneJob(t, st2)
	if !second.SetupCached {
		t.Fatal("second lifetime re-paid setup despite a warm store")
	}
	if got, want := pointsJSON(t, second), pointsJSON(t, first); got != want {
		t.Fatalf("sweep results differ across restart:\nfirst:  %s\nsecond: %s", want, got)
	}
	if second.TraceDigest != first.TraceDigest {
		t.Fatalf("trace digest changed across restart: %s vs %s", second.TraceDigest, first.TraceDigest)
	}
	stats := st2.Stats()
	if stats.Hits < 2 {
		t.Fatalf("store hits = %d, want at least 2 (trace + analysis)", stats.Hits)
	}
	if stats.SavedSetup <= 0 {
		t.Fatal("store recorded no setup savings across the restart")
	}

	// The ranked points must also match a from-scratch reference sweep, so
	// "identical" cannot mean "identically wrong".
	want := referencePoints(t, "rpstacks")
	if len(second.Points) != len(want) {
		t.Fatalf("second run returned %d points, want %d", len(second.Points), len(want))
	}
	for k := range want {
		if second.Points[k].Cycles != want[k].Cycles {
			t.Fatalf("point %d: cycles %g, want %g", k, second.Points[k].Cycles, want[k].Cycles)
		}
	}
}

// TestStoreCorruptionRebuildsThroughService flips bits in every published
// object between service lifetimes: the next lifetime must detect the
// damage (counted as corruptions), silently rebuild, and still produce the
// reference result — corruption costs time, never correctness.
func TestStoreCorruptionRebuildsThroughService(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := runOneJob(t, st1)

	// Size-preserving damage: survives Open's size check, so it must be
	// caught by the read-time checksum.
	objects, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) == 0 {
		t.Fatal("no objects published")
	}
	for _, de := range objects {
		p := filepath.Join(dir, "objects", de.Name())
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	second := runOneJob(t, st2)
	if second.SetupCached {
		t.Fatal("corrupted store still reported cached setup")
	}
	if got, want := pointsJSON(t, second), pointsJSON(t, first); got != want {
		t.Fatalf("rebuild after corruption changed the result:\nfirst:  %s\nsecond: %s", want, got)
	}
	if stats := st2.Stats(); stats.Corruptions == 0 {
		t.Fatalf("corruption went uncounted: %+v", stats)
	}
	// The rebuilt artifacts were republished: a third lifetime hits again.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	third := runOneJob(t, st3)
	if !third.SetupCached {
		t.Fatal("store not repopulated after corruption rebuild")
	}
}
