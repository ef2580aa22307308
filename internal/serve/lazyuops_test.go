package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/cache"
	"repro/internal/store"
	"repro/internal/trace"
)

// jobSpans counts the job-category spans of one name in the named jobs'
// traces.
func jobSpans(t *testing.T, s *Server, name string, ids ...string) int {
	t.Helper()
	n := 0
	for _, id := range ids {
		job, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		for _, rec := range job.Trace() {
			if rec.Cat == obs.CatJob && rec.Name == name {
				n++
			}
		}
	}
	return n
}

// regenerations counts the uops-regenerate spans in the named jobs' traces.
func regenerations(t *testing.T, s *Server, ids ...string) int {
	t.Helper()
	return jobSpans(t, s, obs.NameUOpsRegenerate, ids...)
}

// memoLen probes the server's region memo for a recipe without filling it.
func memoLen(s *Server, spec *JobSpec) (int, bool) {
	n, hit, _ := s.regions.GetOrCompute(workloadKey(spec), func() (int, time.Duration, error) {
		return 0, 0, errors.New("not memoized")
	})
	return n, hit
}

// storeServer opens the store in dir and starts a one-slot server over it,
// so that a job on a second recipe evicts the first from the memory tier.
// With hold nil the server has one worker; otherwise it has two, and hold
// is their beforeJob hook.
func storeServer(t *testing.T, dir string, hold func(*Job)) (*Server, *store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers := 1
	if hold != nil {
		workers = 2
	}
	s := New(Config{Workers: workers, SweepParallelism: 2, CacheEntries: 1, Store: st})
	s.beforeJob = hold
	return s, st, httptest.NewServer(s)
}

// stopServer closes the listener and drains the server.
func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// otherRecipe is the acceptance job's body on a second workload recipe.
var otherRecipe = testBody(`,"seed":1`)

// TestUOpsRegeneratedOnDemand: a workload's µop stream is an input of the
// sim engine alone. A disk hit on a recipe this process has generated reads
// the trace and nothing else; a fresh process regenerates once per recipe,
// on its first disk hit, to learn the record count; two concurrent sim jobs
// on a disk-hit entry regenerate the stream once between them and answer
// exactly as the cold sim job.
func TestUOpsRegeneratedOnDemand(t *testing.T) {
	dir := t.TempDir()

	// First process: cold builds hold their stream; a later disk hit on a
	// recipe it built finds the length in the memo.
	s1, _, ts1 := storeServer(t, dir, nil)
	simCold := runJob(t, ts1.URL, engineBody("sim", ""))
	rpCold := runJob(t, ts1.URL, testBody(""))
	other := runJob(t, ts1.URL, otherRecipe)
	rpDisk := runJob(t, ts1.URL, testBody(""))
	if !rpDisk.Result.SetupCached {
		t.Fatal("RpStacks job after an eviction did not hit the durable tier")
	}
	if n := regenerations(t, s1, simCold.ID, rpCold.ID, other.ID, rpDisk.ID); n != 0 {
		t.Errorf("cold builds and a memoized disk hit recorded %d uops-regenerate spans, want 0", n)
	}
	if pointsJSON(t, rpDisk.Result) != pointsJSON(t, rpCold.Result) {
		t.Error("disk-hit RpStacks job ranks differently from the cold job")
	}
	stopServer(t, s1, ts1)

	// A fresh process over the same store: one regeneration per recipe on
	// its first disk hit, none on the next.
	var gate sync.WaitGroup
	s2, _, ts2 := storeServer(t, dir, func(job *Job) {
		if job.Spec.Engine == "sim" {
			// Hold each sim job until both have a worker, so their
			// setups overlap on the one entry.
			gate.Done()
			gate.Wait()
		}
	})
	defer stopServer(t, s2, ts2)
	first := runJob(t, ts2.URL, testBody(""))
	firstOther := runJob(t, ts2.URL, otherRecipe)
	second := runJob(t, ts2.URL, testBody(""))
	secondOther := runJob(t, ts2.URL, otherRecipe)
	for _, c := range []struct {
		v    jobView
		want int
	}{{first, 1}, {firstOther, 1}, {second, 0}, {secondOther, 0}} {
		if !c.v.Result.SetupCached {
			t.Errorf("job %s on a restarted store was not a disk hit", c.v.ID)
		}
		if n := regenerations(t, s2, c.v.ID); n != c.want {
			t.Errorf("disk-hit job %s recorded %d uops-regenerate spans, want %d", c.v.ID, n, c.want)
		}
	}
	if pointsJSON(t, first.Result) != pointsJSON(t, rpCold.Result) ||
		pointsJSON(t, second.Result) != pointsJSON(t, rpCold.Result) {
		t.Error("a restarted process's disk hits rank differently from the cold job")
	}

	// Two concurrent sim jobs: one is a disk hit on a memoized recipe, the
	// other joins its flight or hits memory after it. Both engines ask for
	// the stream, which is regenerated once for the entry.
	gate.Add(2)
	var ids [2]string
	for i := range ids {
		v, code := submitJob(t, ts2.URL, engineBody("sim", ""))
		if code != http.StatusAccepted {
			t.Fatalf("sim submit status %d, want 202", code)
		}
		ids[i] = v.ID
	}
	cached := 0
	for _, id := range ids {
		v := pollJob(t, ts2.URL, id)
		if v.Status != JobDone {
			t.Fatalf("sim job %s: status %s (error %q)", id, v.Status, v.Error)
		}
		if v.Result.SetupCached {
			cached++
		}
		if pointsJSON(t, v.Result) != pointsJSON(t, simCold.Result) {
			t.Errorf("sim job %s differs from the cold sim job", id)
		}
	}
	if cached == 0 {
		// The flight's disk hit reports a cached setup; the other job
		// either joined that flight or hit memory after it.
		t.Error("neither concurrent sim job reports a cached setup")
	}
	if n := regenerations(t, s2, ids[0], ids[1]); n != 1 {
		t.Errorf("two sim jobs on a disk-hit entry recorded %d uops-regenerate spans, want 1", n)
	}
}

// TestWorkloadCountCheck: a validly framed workload blob whose trace is one
// record short of the recipe's measured region is rejected on its disk hit,
// deleted and rebuilt — whether the record count comes from a regeneration
// (a fresh process) or from the memo.
func TestWorkloadCountCheck(t *testing.T) {
	dir := t.TempDir()
	s1, _, ts1 := storeServer(t, dir, nil)
	cold := runJob(t, ts1.URL, testBody(""))
	stopServer(t, s1, ts1)

	s2, st, ts2 := storeServer(t, dir, nil)
	defer stopServer(t, s2, ts2)
	key := s2.workloadDiskKey(&JobSpec{Workload: testWorkload, MicroOps: testMicroOps})
	good, _, ok := st.Get(key)
	if !ok {
		t.Fatalf("no workload blob under %s", key)
	}
	tr, err := trace.Decode(good)
	if err != nil {
		t.Fatal(err)
	}
	tr.Records = tr.Records[:len(tr.Records)-1]
	var short bytes.Buffer
	if err := trace.Write(&short, tr); err != nil {
		t.Fatal(err)
	}

	for k, c := range []struct {
		name  string
		memo  bool
		spans int
	}{
		{name: "without a memo entry", memo: false, spans: 1},
		{name: "with a memo entry", memo: true, spans: 0},
	} {
		if c.memo {
			// Evict the rebuilt entry from memory; the memo keeps its length.
			runJob(t, ts2.URL, otherRecipe)
		}
		if _, ok := memoLen(s2, &JobSpec{Workload: testWorkload, MicroOps: testMicroOps}); ok != c.memo {
			t.Fatalf("%s: memo holds the recipe: %v", c.name, ok)
		}
		if err := st.Put(key, short.Bytes(), 0); err != nil {
			t.Fatal(err)
		}
		v := runJob(t, ts2.URL, testBody(""))
		if v.Result.SetupCached {
			t.Errorf("%s: a short stored trace was served as a cache hit", c.name)
		}
		if pointsJSON(t, v.Result) != pointsJSON(t, cold.Result) {
			t.Errorf("%s: the rebuild ranks differently from the cold job", c.name)
		}
		if n := regenerations(t, s2, v.ID); n != c.spans {
			t.Errorf("%s: %d uops-regenerate spans, want %d", c.name, n, c.spans)
		}
		if got := s2.workloads.Stats().DecodeErrors; got != uint64(k+1) {
			t.Errorf("%s: %d decode errors counted, want %d", c.name, got, k+1)
		}
		if blob, _, ok := st.Get(key); !ok || !bytes.Equal(blob, good) {
			t.Errorf("%s: the short blob was not replaced by the rebuilt trace", c.name)
		}
	}
}

// TestRegionMemoBounded: past regionMemoSize distinct recipes the memo
// forgets the least recently used, and what it keeps is exact.
func TestRegionMemoBounded(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	spec := func(seed int) *JobSpec {
		return &JobSpec{Workload: testWorkload, Seed: int64(seed), MicroOps: 16}
	}
	lens := make([]int, regionMemoSize+8)
	for i := range lens {
		_, _, uops, err := measuredRegion(spec(i))
		if err != nil {
			t.Fatal(err)
		}
		lens[i] = len(uops)
		s.noteRegion(spec(i), lens[i])
	}
	if n := s.regions.Len(); n != regionMemoSize {
		t.Fatalf("memo holds %d recipes after %d, want %d", n, len(lens), regionMemoSize)
	}
	for i, want := range lens {
		got, ok := memoLen(s, spec(i))
		if kept := i >= len(lens)-regionMemoSize; ok != kept || (ok && got != want) {
			t.Errorf("recipe %d: memo has (%d, %v), want (%d, %v)", i, got, ok, want, kept)
		}
	}
}

// TestKeptStreamOwnsItsRegion: an entry that keeps its µop stream keeps the
// measured region alone, in an array exactly its length — after a cold
// build and after a fresh process's disk hit on a recipe its memo lacks —
// and a sim job served from the kept stream answers exactly as the cold sim
// job.
func TestKeptStreamOwnsItsRegion(t *testing.T) {
	spec := &JobSpec{Workload: testWorkload, MicroOps: testMicroOps}
	_, _, region, err := measuredRegion(spec)
	if err != nil {
		t.Fatal(err)
	}
	kept := func(s *Server, label string) {
		t.Helper()
		wa, tier, err := s.workloads.GetOrCompute(s.workloadDiskKey(spec), s.workloadCodec(spec, nil, 0),
			func() (*workloadArtifacts, time.Duration, error) { return nil, 0, errors.New("not built") })
		if err != nil || tier != cache.TierMem {
			t.Fatalf("%s: entry not in memory (tier %v, err %v)", label, tier, err)
		}
		uops, err := s.workloadUOps(wa, spec, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cap(uops) != len(uops) {
			t.Errorf("%s: kept stream has cap %d, len %d", label, cap(uops), len(uops))
		}
		if !slices.Equal(uops, region) {
			t.Errorf("%s: kept stream differs from the measured region", label)
		}
	}

	dir := t.TempDir()
	s1, _, ts1 := storeServer(t, dir, nil)
	simCold := runJob(t, ts1.URL, engineBody("sim", ""))
	runJob(t, ts1.URL, testBody("")) // persists the analysis too
	kept(s1, "cold build")
	stopServer(t, s1, ts1)

	s2, _, ts2 := storeServer(t, dir, nil)
	defer stopServer(t, s2, ts2)
	rp := runJob(t, ts2.URL, testBody(""))
	if !rp.Result.SetupCached || regenerations(t, s2, rp.ID) != 1 {
		t.Fatalf("first job of a fresh process: cached %v, want a disk hit that regenerates once", rp.Result.SetupCached)
	}
	kept(s2, "memo-missing disk hit")
	sim := runJob(t, ts2.URL, engineBody("sim", ""))
	if n := regenerations(t, s2, sim.ID); n != 0 {
		t.Errorf("sim job on the kept stream recorded %d uops-regenerate spans, want 0", n)
	}
	if pointsJSON(t, sim.Result) != pointsJSON(t, simCold.Result) {
		t.Error("sim job on the kept stream differs from the cold sim job")
	}
}
