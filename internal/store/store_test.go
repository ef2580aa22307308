package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// reopen closes nothing (the store holds no descriptors between calls) and
// opens a fresh Store over the same directory, as a restarted process would.
func reopen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestPutGetRoundTrip checks the basic contract: published bytes come back
// verbatim with their recorded cost, and the hit is counted as saved setup.
func TestPutGetRoundTrip(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{})
	payload := []byte("the artifact bytes")
	if err := s.Put("k1", payload, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, cost, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the published payload", got, ok)
	}
	if cost != 250*time.Millisecond {
		t.Fatalf("cost = %v, want 250ms", cost)
	}
	st := s.Stats()
	if st.Hits != 1 || st.SavedSetup != 250*time.Millisecond {
		t.Fatalf("stats = %+v; want one hit saving 250ms", st)
	}
	if _, _, ok := s.Get("absent"); ok {
		t.Fatal("absent key reported a hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestRestartDurability is the acceptance core: entries published by one
// Store instance are hits in a fresh instance over the same directory, with
// identical bytes and the original build cost intact, so a restarted
// service re-pays zero setup.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	first := reopen(t, dir, Options{})
	payloads := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("digest-%02d|fp", i)
		payloads[key] = bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := first.Put(key, payloads[key], time.Duration(i+1)*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	second := reopen(t, dir, Options{})
	if second.Len() != len(payloads) {
		t.Fatalf("reopened store has %d entries, want %d", second.Len(), len(payloads))
	}
	for key, want := range payloads {
		got, cost, ok := second.Get(key)
		if !ok {
			t.Fatalf("key %q lost across restart", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %q: payload differs across restart", key)
		}
		if cost <= 0 {
			t.Fatalf("key %q: build cost %v not preserved", key, cost)
		}
	}
	st := second.Stats()
	if st.Hits != uint64(len(payloads)) || st.Corruptions != 0 {
		t.Fatalf("reopened stats = %+v; want %d clean hits", st, len(payloads))
	}
	if st.SavedSetup < 1*time.Second {
		t.Fatalf("saved setup %v across restart; want the recorded costs", st.SavedSetup)
	}
}

// TestCorruptPayloadIsAMiss flips bytes in a published object and checks
// the entry is never served: the read is a miss, the corruption counter
// moves, the entry is dropped, and a re-publish heals it.
func TestCorruptPayloadIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	if err := s.Put("k", []byte("precious"), time.Second); err != nil {
		t.Fatal(err)
	}
	obj := s.objectPath("k")
	if err := os.WriteFile(obj, []byte("precioux"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("corrupted payload served as a hit")
	}
	if st := s.Stats(); st.Corruptions != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want the corrupt entry dropped and counted", st)
	}
	// The slot is rebuildable.
	if err := s.Put("k", []byte("precious"), time.Second); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get("k"); !ok || string(got) != "precious" {
		t.Fatalf("rebuilt entry Get = %q, %v", got, ok)
	}
}

// TestCorruptionSurvivesRestart corrupts an object while the store is
// closed; the reopened store must detect it on read (same size) or at open
// (size change), and never serve the bad bytes.
func TestCorruptionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	if err := s.Put("same-size", []byte("aaaa"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("truncated", []byte("bbbbbbbb"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath("same-size"), []byte("aaab"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath("truncated"), []byte("bb"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{})
	if _, _, ok := r.Get("same-size"); ok {
		t.Fatal("same-size corruption served after restart")
	}
	if _, _, ok := r.Get("truncated"); ok {
		t.Fatal("truncated object served after restart")
	}
	if st := r.Stats(); st.Corruptions == 0 {
		t.Fatalf("stats = %+v; corruption went uncounted", st)
	}
}

// TestCapacityGC publishes past MaxBytes and checks LRU eviction: the
// least-recently-used entries go first, the byte budget holds, and the
// evicted keys read as misses while survivors stay intact.
func TestCapacityGC(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{MaxBytes: 250})
	pay := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), pay(i), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is the LRU victim when k2 arrives.
	if _, _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before GC")
	}
	if err := s.Put("k2", pay(2), time.Second); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 250 {
		t.Fatalf("stats = %+v; want one eviction within the byte budget", st)
	}
	if _, _, ok := s.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived GC")
	}
	for _, k := range []string{"k0", "k2"} {
		if got, _, ok := s.Get(k); !ok || !bytes.Equal(got, pay(int(k[1]-'0'))) {
			t.Fatalf("survivor %s damaged by GC", k)
		}
	}
	// The bound also holds across a restart (Open re-runs GC).
	r := reopen(t, dir, Options{MaxBytes: 100})
	if st := r.Stats(); st.Bytes > 100 || st.Entries != 1 {
		t.Fatalf("reopened under a tighter bound: %+v", st)
	}
}

// TestOversizedEntryOvershootsOnce checks the no-thrash rule: a payload
// larger than MaxBytes is kept (the newest entry is never evicted) while
// everything else is evicted.
func TestOversizedEntryOvershootsOnce(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{MaxBytes: 50})
	if err := s.Put("small", []byte("xy"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("huge", bytes.Repeat([]byte{1}, 200), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("huge"); !ok {
		t.Fatal("oversized entry evicted itself")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v; want only the oversized entry", st)
	}
}

// TestStaleTempsSweptOnOpen plants leftover temp files (a crashed
// publication) and checks Open removes them.
func TestStaleTempsSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	reopen(t, dir, Options{})
	stale := filepath.Join(dir, tmpSub, "obj-stale")
	if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}

// TestReplaceKey republishes a key and checks the new bytes win and the
// byte accounting does not double-count.
func TestReplaceKey(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{})
	if err := s.Put("k", []byte("old-old-old"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("new"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	got, cost, ok := s.Get("k")
	if !ok || string(got) != "new" || cost != 2*time.Second {
		t.Fatalf("Get = %q, %v, %v; want the replacement", got, cost, ok)
	}
	if st := s.Stats(); st.Bytes != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 3 bytes in 1 entry", st)
	}
}

// TestDeleteCountsCorruption checks the tier-above escape hatch: Delete
// drops the entry and counts it as a corruption (its only caller is the
// decode-failure path).
func TestDeleteCountsCorruption(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{})
	if err := s.Put("k", []byte("stale codec"), time.Second); err != nil {
		t.Fatal(err)
	}
	s.Delete("k")
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("deleted key still serves")
	}
	if st := s.Stats(); st.Corruptions != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want the delete counted as corruption", st)
	}
	s.Delete("k") // deleting an absent key is a no-op
}

// TestPutRejectsBadKeys covers the key validation paths.
func TestPutRejectsBadKeys(t *testing.T) {
	s := reopen(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("x"), 0); err == nil {
		t.Fatal("empty key accepted")
	}
	long := string(bytes.Repeat([]byte{'k'}, maxKeyLen+1))
	if err := s.Put(long, []byte("x"), 0); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// TestConcurrentPutGet hammers the store from many goroutines under -race:
// every published payload must read back intact, and the final state must
// reopen cleanly.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{MaxBytes: 1 << 20})
	const workers, keys = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%d", (w+i)%keys)
				want := bytes.Repeat([]byte{byte((w + i) % keys)}, 64)
				if i%3 == 0 {
					if err := s.Put(k, want, time.Millisecond); err != nil {
						t.Errorf("Put(%s): %v", k, err)
						return
					}
				} else if got, _, ok := s.Get(k); ok && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) returned foreign bytes", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r := reopen(t, dir, Options{})
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if got, _, ok := r.Get(k); ok && !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("reopened %s holds foreign bytes", k)
		}
	}
}

// TestPutDuplicateIdempotent: re-publishing a key with byte-identical
// payload is a cheap in-memory no-op — no object rewrite and (beyond
// hashing the payload) no allocation. This is what
// makes concurrent artifact publication and fleet double-completion cheap.
func TestPutDuplicateIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	payload := bytes.Repeat([]byte("p"), 8192)
	if err := s.Put("dup-key", payload, time.Second); err != nil {
		t.Fatal(err)
	}
	objBefore, err := os.Stat(s.objectPath("dup-key"))
	if err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Put("dup-key", payload, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	// The fast path is a hash, a lock and a map probe; allow a stray alloc
	// for run-to-run noise but reject anything resembling an encode+write.
	if allocs > 1 {
		t.Errorf("duplicate Put allocates %.0f objects per run, want <= 1", allocs)
	}

	objAfter, err := os.Stat(s.objectPath("dup-key"))
	if err != nil {
		t.Fatal(err)
	}
	if !objAfter.ModTime().Equal(objBefore.ModTime()) {
		t.Error("duplicate Put rewrote the object file")
	}

	// A changed payload under the same key still replaces.
	if err := s.Put("dup-key", []byte("different"), time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, ok := s.Get("dup-key")
	if !ok || string(got) != "different" {
		t.Fatalf("Get after replace = %q, %v", got, ok)
	}
	// And the duplicate fast-path survives a restart (the reopened entry
	// learns the payload digest from its object).
	s2 := reopen(t, dir, Options{})
	objBefore2, err := os.Stat(s2.objectPath("dup-key"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("dup-key", []byte("different"), time.Second); err != nil {
		t.Fatal(err)
	}
	objAfter2, err := os.Stat(s2.objectPath("dup-key"))
	if err != nil {
		t.Fatal(err)
	}
	if !objAfter2.ModTime().Equal(objBefore2.ModTime()) {
		t.Error("restarted duplicate Put rewrote the object file")
	}
}

// TestPutWritesOneObject pins the on-disk layout: the store root holds only
// objects/ and tmp/ (no index file), and each object is a frame whose body
// is the 8-byte little-endian build cost followed by the payload.
func TestPutWritesOneObject(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	want := map[string][]byte{"a": []byte("first"), "b|fp": {}, "c": bytes.Repeat([]byte{7}, 300)}
	for key, payload := range want {
		if err := s.Put(key, payload, time.Duration(len(key))*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{objectsSub, tmpSub}) {
		t.Fatalf("store root holds %v, want only %s and %s", names, objectsSub, tmpSub)
	}
	if objs, _ := os.ReadDir(filepath.Join(dir, objectsSub)); len(objs) != len(want) {
		t.Fatalf("%d objects for %d keys", len(objs), len(want))
	}
	for key, payload := range want {
		body, err := ReadFrame(s.objectPath(key))
		if err != nil {
			t.Fatalf("object of %q is not a frame: %v", key, err)
		}
		var cost [8]byte
		binary.LittleEndian.PutUint64(cost[:], uint64(time.Duration(len(key))*time.Second))
		if !bytes.Equal(body, append(cost[:], payload...)) {
			t.Fatalf("object of %q: body %x, want cost ‖ payload", key, body)
		}
	}
}

// TestOpenRebuildsIndex reopens a store from its objects alone: recency
// follows modification time, so a tighter MaxBytes evicts the object
// written longest ago, and a file too short to be an object is removed and
// counted as a corruption.
func TestOpenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	base := time.Now().Add(-time.Hour)
	// Published in one order, dated in another: "mid" is the oldest.
	for i, key := range []string{"new", "old", "mid"} {
		if err := s.Put(key, bytes.Repeat([]byte{byte(i)}, 100), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for key, age := range map[string]time.Duration{"mid": 0, "old": time.Minute, "new": 2 * time.Minute} {
		at := base.Add(age)
		if err := os.Chtimes(s.objectPath(key), at, at); err != nil {
			t.Fatal(err)
		}
	}
	runt := filepath.Join(dir, objectsSub, "runt")
	if err := os.WriteFile(runt, make([]byte, headerLen-1), 0o644); err != nil {
		t.Fatal(err)
	}

	r := reopen(t, dir, Options{MaxBytes: 200})
	st := r.Stats()
	if st.Entries != 2 || st.Bytes != 200 || st.Evictions != 1 || st.Corruptions != 1 {
		t.Fatalf("reopened stats = %+v; want 2 entries of 200 bytes, 1 eviction, 1 corruption", st)
	}
	if _, err := os.Stat(runt); !os.IsNotExist(err) {
		t.Fatal("runt object survived Open")
	}
	if _, _, ok := r.Get("mid"); ok {
		t.Fatal("the oldest object survived a tighter bound")
	}
	for i, key := range []string{"new", "old"} {
		got, cost, ok := r.Get(key)
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) || cost != time.Second {
			t.Fatalf("survivor %q = %d bytes, cost %v, hit %v", key, len(got), cost, ok)
		}
	}
}
