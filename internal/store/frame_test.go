package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestFrameFileRoundTrip covers the file-level helpers: a published frame
// reads back verbatim, a missing file is fs.ErrNotExist, a damaged one is
// ErrCorrupt, and a failed publication leaves neither the target nor its
// temporary behind.
func TestFrameFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	payload := []byte("durable bytes")
	if err := WriteFrame(dir, path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrame = %q, %v; want the published payload", got, err)
	}
	if _, err := ReadFrame(filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing frame: %v, want fs.ErrNotExist", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged frame: %v, want ErrCorrupt", err)
	}

	// Renaming into a directory that does not exist fails after the temp
	// was written: the temp must be cleaned up.
	if err := WriteFrame(dir, filepath.Join(dir, "no-such-dir", "blob"), payload); err == nil {
		t.Fatal("publication into a missing directory succeeded")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "blob" {
		t.Fatalf("failed publication left files behind: %v", des)
	}
}
