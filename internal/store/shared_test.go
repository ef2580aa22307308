package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// shared_test.go — the fleet's cross-process blob root: round-trip,
// idempotent duplicate publication (no rewrite, no allocation storm),
// replacement, and corruption quarantine.

func openShared(t *testing.T, dir string) *Shared {
	t.Helper()
	s, err := OpenShared(dir)
	if err != nil {
		t.Fatalf("OpenShared(%s): %v", dir, err)
	}
	return s
}

func TestSharedRoundTrip(t *testing.T) {
	s := openShared(t, t.TempDir())
	payload := []byte("chunk result bytes")
	dup, err := s.Put("fleet|abc|chunk-000001", payload)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("first Put reported dup")
	}
	got, ok := s.Get("fleet|abc|chunk-000001")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the published payload", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("absent key reported a hit")
	}
	if _, err := s.Read("absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Read(absent) = %v, want fs.ErrNotExist", err)
	}
	if st := s.Stats(); st.Puts != 1 || st.Duplicates != 0 {
		t.Fatalf("stats = %+v, want exactly one real put", st)
	}
}

// TestSharedDuplicatePutIsNoOp is the work-stealing double-publication path:
// the second identical Put must not rewrite the object file (mtime and inode
// content untouched) and must report dup.
func TestSharedDuplicatePutIsNoOp(t *testing.T) {
	s := openShared(t, t.TempDir())
	payload := bytes.Repeat([]byte("x"), 4096)
	if _, err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("k")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Put("k", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("identical re-Put did not report dup")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("duplicate Put rewrote the object: mtime %v -> %v", before.ModTime(), after.ModTime())
	}
	if st := s.Stats(); st.Puts != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want one put and one duplicate", st)
	}
	// A cross-process duplicate publisher keeps its own counters but the
	// file outcome is the same: untouched.
	other := openShared(t, s.dir)
	if dup, err := other.Put("k", payload); err != nil || !dup {
		t.Fatalf("second process Put = dup %v, %v; want a dedup", dup, err)
	}
	final, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !final.ModTime().Equal(before.ModTime()) {
		t.Fatal("cross-process duplicate Put rewrote the object")
	}
}

func TestSharedReplaceDifferentPayload(t *testing.T) {
	s := openShared(t, t.TempDir())
	if _, err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	dup, err := s.Put("k", []byte("newer bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("different payload reported dup")
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "newer bytes" {
		t.Fatalf("Get = %q, %v after replace", got, ok)
	}
}

func TestSharedCorruptionIsQuarantined(t *testing.T) {
	s := openShared(t, t.TempDir())
	if _, err := s.Put("k", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt payload reported a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt object not removed: %v", err)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", st.Corruptions)
	}
	// Truncation below the header is the same corruption path.
	if _, err := s.Put("k2", []byte("pristine")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.objectPath("k2"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("k2"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of a truncated payload = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Corruptions != 2 {
		t.Fatalf("corruptions = %d, want 2", st.Corruptions)
	}
}

func TestSharedDelete(t *testing.T) {
	s := openShared(t, t.TempDir())
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key reported a hit")
	}
	s.Delete("k") // deleting a missing key is quiet
}

func TestSharedSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	openShared(t, dir)
	stale := filepath.Join(dir, tmpSub, "obj-stale")
	if err := os.WriteFile(stale, []byte("crashed publication"), 0o644); err != nil {
		t.Fatal(err)
	}
	openShared(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived reopen")
	}
}

func TestSharedKeyValidation(t *testing.T) {
	s := openShared(t, t.TempDir())
	if _, err := s.Put("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	long := string(bytes.Repeat([]byte("k"), maxKeyLen+1))
	if _, err := s.Put(long, []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// TestSharedObjectLayout pins the on-disk format: 32-byte payload digest
// header, then the payload, at objects/hex(sha256(key)) — the addressing
// Store uses, so the two layouts stay mutually intelligible.
func TestSharedObjectLayout(t *testing.T) {
	s := openShared(t, t.TempDir())
	payload := []byte("layout check")
	if _, err := s.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	keySum := sha256.Sum256([]byte("k"))
	path := filepath.Join(s.dir, objectsSub, hex.EncodeToString(keySum[:]))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("object not at the addressed path: %v", err)
	}
	paySum := sha256.Sum256(payload)
	if !bytes.Equal(raw[:sha256.Size], paySum[:]) || !bytes.Equal(raw[sha256.Size:], payload) {
		t.Fatal("object layout is not digest||payload")
	}
}
