package dse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/stacks"
	"repro/internal/store"
	"repro/internal/wire"
)

// checkpoint.go — crash-safe sweep resume. A checkpointed sweep persists
// every completed chunk of design points as its own file, published
// atomically as a store frame (store.WriteFrame), so a killed sweep loses at
// most the chunk in flight. A later run over the same directory restores the
// persisted points, evaluates only the remainder, and returns Results
// provably identical to an uninterrupted run: points are stored by index,
// the engine's inputs are bound into every chunk by a fingerprint, and a
// chunk that fails its frame check is discarded (its points re-evaluated),
// never trusted.
//
// Only (index, cycles) pairs are persisted — a point's index is its latency
// assignment, answered by the sweep's point source (the caller's list or a
// space's decode, Report.Point), which the fingerprint covers.

// Checkpoint configures crash-safe persistence for one sweep.
type Checkpoint struct {
	// Dir is the checkpoint directory, created if absent. One directory
	// serves one logical sweep; reusing it for a different engine, design
	// points or engine input is detected via fingerprint and rejected. The
	// fingerprint covers the points, not their source, so a sweep over a
	// Space (ExploreSpace) and one over its enumeration (Explore) are the
	// same sweep: either resumes the other's checkpoint.
	Dir string
	// RemoveOnSuccess deletes the chunk files once the sweep has completed
	// and its Report is final, so a finished run does not leave its whole
	// result set behind on disk. A failed or cancelled sweep always keeps
	// its chunks — they are exactly what the next run resumes from. Off by
	// default: callers that re-read a completed checkpoint (tests, tooling)
	// keep the historical keep-everything behavior.
	RemoveOnSuccess bool
}

const (
	chunkMagic   = "RPCKP"
	chunkVersion = 2
	// maxChunkEntries bounds the per-chunk point count a decoder accepts.
	maxChunkEntries = 1 << 24
)

// sweepFingerprint binds a checkpoint to everything that determines a
// sweep's output: the engine, the engine's prepared input (streamed by
// salt), and every design point of src in index order. A list and a space
// holding the same points stream the same bytes.
func sweepFingerprint(method string, salt func(io.Writer) error, src *pointSource) ([sha256.Size]byte, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", method, src.n)
	if salt != nil {
		if err := salt(h); err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("dse: fingerprinting engine input: %w", err)
		}
	}
	var b [8]byte
	src.each(func(l *stacks.Latencies) {
		for _, v := range l {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	})
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp, nil
}

// encodeChunk renders one completed chunk: magic, version, fingerprint,
// count, (index, cycles) pairs. It carries identity, not integrity: loose
// files are store frames and fleet blobs live in store.Shared, which both
// checksum the bytes. idxs and cycles are aligned: cycles[k] is the result
// of point idxs[k].
func encodeChunk(fp [sha256.Size]byte, idxs []int, cycles []float64) []byte {
	buf := make([]byte, 0, len(chunkMagic)+2+sha256.Size+len(idxs)*12)
	buf = append(buf, chunkMagic...)
	buf = binary.AppendUvarint(buf, chunkVersion)
	buf = append(buf, fp[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(idxs)))
	for k, i := range idxs {
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cycles[k]))
	}
	return buf
}

// chunkEntry is one decoded (point index, cycles) pair.
type chunkEntry struct {
	idx    int
	cycles float64
}

// decodeChunk parses one chunk payload. It returns the embedded fingerprint
// separately from the entries so the caller can distinguish "corrupt file"
// (errCorruptChunk: discard and re-evaluate) from "healthy file of a
// different sweep" (a caller-level hard error). Bytes encodeChunk cannot
// write, such as a non-minimal varint or an index past the int range, are
// corrupt.
func decodeChunk(raw []byte) (fp [sha256.Size]byte, entries []chunkEntry, err error) {
	d := wire.NewDecoder(raw)
	d.Magic(chunkMagic)
	if d.Uvarint() != chunkVersion {
		return fp, nil, errCorruptChunk
	}
	copy(fp[:], d.Bytes(sha256.Size))
	// Every entry takes at least nine bytes: its index and its cycles.
	entries = make([]chunkEntry, d.Count(maxChunkEntries, 9))
	for k := range entries {
		idx := d.Uvarint()
		if idx > math.MaxInt {
			return fp, nil, errCorruptChunk
		}
		entries[k] = chunkEntry{idx: int(idx), cycles: d.Float64()}
	}
	if d.Finish() != nil {
		return fp, nil, errCorruptChunk
	}
	return fp, entries, nil
}

var errCorruptChunk = fmt.Errorf("dse: corrupt checkpoint chunk")

// looseLog is one layer's loose chunk files in a directory: a sweep
// checkpoint or a search probe log. Each file is a store frame around one
// encodeChunk payload, named by the chunk's first index; the prefixes
// differ so the two layers never ingest each other's files.
type looseLog struct {
	prefix  string // file-name prefix
	digits  int    // zero-padded width of the first index in a file name
	what    string // the log's name in errors
	foreign string // what a foreign fingerprint means, in errors
}

var (
	sweepLog = looseLog{"chunk-", 9, "checkpoint", "a different sweep (method, inputs or design points changed)"}
	probeLog = looseLog{"probe-", 12, "probe log", "a different search (engine inputs, space, spec or baseline changed)"}
)

// save atomically publishes one completed chunk. The first index names the
// file uniquely across resumes: a point lands in at most one published
// chunk, and chunks that failed to load were deleted before their points
// became pending again.
func (l looseLog) save(dir string, fp []byte, idxs []int, cycles []float64) error {
	name := fmt.Sprintf("%s%0*d", l.prefix, l.digits, idxs[0])
	if err := store.WriteFrame(dir, filepath.Join(dir, name), encodeChunk([sha256.Size]byte(fp), idxs, cycles)); err != nil {
		return fmt.Errorf("dse: writing %s chunk: %w", l.what, err)
	}
	return nil
}

// load restores every readable chunk file of the log in dir (created if
// absent) through accept and returns the restored entry count. accept must
// check every entry before scattering any, and return false — scattering
// nothing — for indices this log's writer could never have produced (out of
// range, or already restored). Such files, and files that fail the frame
// check or do not decode, are deleted so their points are re-evaluated. A
// healthy file carrying a different fingerprint is a hard error, because
// silently mixing two runs' results is the one failure resume must never
// have. Each restored file is recorded as one resume span under parent
// (Arg = its entry count), which is how the progress meter learns how much
// arrived from disk; tr may be nil.
func (l looseLog) load(dir string, fp []byte, accept func([]chunkEntry) bool, tr *obs.Tracer, parent uint64) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("dse: creating %s dir: %w", l.what, err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("dse: reading %s dir: %w", l.what, err)
	}
	restored := 0
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), l.prefix) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		var gotFP [sha256.Size]byte
		var entries []chunkEntry
		raw, err := store.ReadFrame(path)
		if err == nil {
			gotFP, entries, err = decodeChunk(raw)
		}
		if err == nil && !bytes.Equal(gotFP[:], fp) {
			return 0, fmt.Errorf("dse: %s %s belongs to %s", l.what, path, l.foreign)
		}
		if err != nil || !accept(entries) {
			_ = os.Remove(path)
			continue
		}
		restored += len(entries)
		sp := tr.StartChild(parent, obs.CatDSE, obs.NameResume)
		sp.SetArg(obs.ArgPoints, int64(len(entries)))
		sp.End()
	}
	return restored, nil
}

// remove best-effort deletes every chunk file of the log in dir, then the
// directory itself if that left it empty. Called only after the run has
// completed and its result is final (Checkpoint.RemoveOnSuccess), so losing
// the files can no longer lose results; errors are ignored because a
// leftover file merely re-creates the pre-cleanup behavior.
func (l looseLog) remove(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), l.prefix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	_ = os.Remove(dir) // fails (and is kept) when anything else lives there
}
