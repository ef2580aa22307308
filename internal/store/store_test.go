package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
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

// TestCorruptManifestDegradesToEmpty overwrites the manifest with garbage:
// the store must open empty (counting the corruption) rather than fail or
// trust the bytes, and must sweep the now-orphaned objects.
func TestCorruptManifestDegradesToEmpty(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir, Options{})
	if err := s.Put("k", []byte("payload"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.manifestPath(), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := reopen(t, dir, Options{})
	if r.Len() != 0 {
		t.Fatalf("store built from garbage manifest has %d entries", r.Len())
	}
	if st := r.Stats(); st.Corruptions != 1 {
		t.Fatalf("stats = %+v; want the manifest corruption counted", st)
	}
	des, err := os.ReadDir(filepath.Join(dir, objectsSub))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("%d orphaned objects not swept", len(des))
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

// TestManifestRoundTrip pins the codec contract the fuzz target explores:
// encode→decode is the identity, and the encoding is canonical.
func TestManifestRoundTrip(t *testing.T) {
	entries := []entryMeta{
		{Key: "a", Size: 1, Cost: time.Second, LastUse: 7},
		{Key: "b|fingerprint", Size: 1 << 30, Cost: time.Hour, LastUse: 1},
	}
	for i := range entries {
		for j := range entries[i].Sum {
			entries[i].Sum[j] = byte(i*31 + j)
		}
	}
	raw := encodeManifest(entries)
	got, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	if !bytes.Equal(encodeManifest(got), raw) {
		t.Fatal("re-encoding is not canonical")
	}
	// The manifest is published as a frame: flipping any byte of it must be
	// caught by the frame check before the decoder sees a byte.
	framed := frame(sha256.Sum256(raw), raw)
	for _, i := range []int{0, sha256.Size, len(framed) / 2, len(framed) - 1} {
		bad := bytes.Clone(framed)
		bad[i] ^= 0x40
		if _, err := unframe(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped yet manifest frame verified: %v", i, err)
		}
	}
	if _, err := decodeManifest(raw[:len(raw)-5]); err == nil {
		t.Fatal("truncated manifest decoded")
	}
}

// TestPutDuplicateIdempotent: re-publishing a key with byte-identical
// payload is a cheap in-memory no-op — no object rewrite, no manifest
// rewrite, and (beyond hashing the payload) no allocation. This is what
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
	manBefore, err := os.Stat(s.manifestPath())
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
	manAfter, err := os.Stat(s.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if !objAfter.ModTime().Equal(objBefore.ModTime()) {
		t.Error("duplicate Put rewrote the object file")
	}
	if !manAfter.ModTime().Equal(manBefore.ModTime()) {
		t.Error("duplicate Put rewrote the manifest")
	}

	// A changed payload under the same key still replaces.
	if err := s.Put("dup-key", []byte("different"), time.Second); err != nil {
		t.Fatal(err)
	}
	got, _, ok := s.Get("dup-key")
	if !ok || string(got) != "different" {
		t.Fatalf("Get after replace = %q, %v", got, ok)
	}
	// And the duplicate fast-path survives a restart (the manifest persists
	// the payload digest).
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
