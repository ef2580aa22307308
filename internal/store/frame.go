package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// frame.go — the one integrity layer for durable data. Every durable file —
// store objects, fleet blobs, sweep checkpoint and probe-log chunks — is
// published by writeAtomic (temp file, write, fsync, close, rename), and
// every one is a frame: sha256(payload) ‖ payload. Blob codecs above this
// layer (sweep and probe chunks, trace fragments) carry only their
// identity — magic, version, fingerprint — and their payload; damage is
// this layer's business alone.

// ErrCorrupt reports a frame whose checksum does not match its payload, or
// that is too short to hold a checksum at all.
var ErrCorrupt = errors.New("store: corrupt frame")

// WriteFrame atomically publishes sha256(payload) ‖ payload at path, staging
// the temporary file in tmpDir (which must be on path's filesystem). A crash
// at any instant leaves either the old file or the whole new one.
func WriteFrame(tmpDir, path string, payload []byte) error {
	return writeAtomic(tmpDir, path, frame(sha256.Sum256(payload), payload))
}

// ReadFrame reads the frame at path and returns its verified payload. An
// unreadable file returns the read error (fs.ErrNotExist for a missing one);
// a damaged frame returns ErrCorrupt.
func ReadFrame(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unframe(raw)
}

// frame lays out sum ‖ payload; sum must be sha256(payload).
func frame(sum [sha256.Size]byte, payload []byte) []byte {
	return append(sum[:], payload...)
}

// unframe verifies raw as a frame and returns its payload, which aliases raw.
func unframe(raw []byte) ([]byte, error) {
	if len(raw) < sha256.Size {
		return nil, ErrCorrupt
	}
	payload := raw[sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(raw[:sha256.Size]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// writeAtomic publishes data at path: a temporary file in tmpDir is written
// in one call, synced, closed and renamed into place; on any error the
// temporary is removed and path is untouched.
func writeAtomic(tmpDir, path string, data []byte) error {
	tmp, err := os.CreateTemp(tmpDir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp for %s: %w", filepath.Base(path), err)
	}
	tmpName := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(path), err)
	}
	return nil
}
