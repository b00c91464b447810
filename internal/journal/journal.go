// Package journal makes searches crash-safe and resumable.
//
// A journal is a directory holding three files:
//
//   - meta.json: the run's identity (problem, algorithm, seed, budget),
//     written once at creation via atomic rename. A resume refuses to
//     continue under different semantics.
//   - journal.log: an append-only record log, one frame per completed
//     evaluation, each frame checksummed and fsync'd before the search
//     may observe the outcome. A torn final frame (the crash hit
//     mid-write) is detected by its checksum and dropped on open.
//   - checkpoint.json: the completion marker {cursor, done, skipped},
//     written once via atomic rename when the run ends naturally. An
//     interrupted run has none; a marker whose cursor disagrees with the
//     log is ignored.
//
// Recovery never trusts partial writes: the log is scanned frame by
// frame and truncated at the first invalid frame, so after any crash the
// journal holds exactly the evaluations whose outcomes were durable.
//
// There is one resume path, replay: the search algorithm is re-run from
// its seed with the journaled outcomes served in place of real
// evaluations, and every configuration it requests is checked against
// the journaled one. That reproduces every random draw and model
// decision bit-exactly for every algorithm in internal/search, and
// refuses a journal recorded under different semantics at the first
// diverging request. A completed journal short-circuits: Run returns its
// records without replaying. See DESIGN.md.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Frame layout: 4-byte little-endian payload length, 4-byte little-endian
// CRC-32C (Castagnoli) of the payload, then the payload bytes.
const frameHeaderSize = 8

// maxFrameSize bounds a single frame. A record is a few hundred bytes of
// JSON; a length field beyond this is corruption, not data, and the scan
// must not try to allocate it.
const maxFrameSize = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// log is the append-only frame file. It is kept open with O_APPEND for
// the lifetime of a Session; every Append is followed by fsync so an
// acknowledged frame survives power loss.
type logFile struct {
	f *os.File
}

// openLog opens (creating if missing) the frame file, scans every frame,
// and truncates a torn tail. It returns the intact payloads in order.
func openLog(path string) (*logFile, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	payloads, good, err := scanFrames(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	if fi.Size() > good {
		// The tail is a torn frame from a crash mid-write. Drop it: the
		// evaluation it described was never acknowledged, so the resumed
		// search will simply redo it.
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return &logFile{f: f}, payloads, nil
}

// scanFrames reads frames from the start of f, stopping at the first
// invalid one. It returns the valid payloads and the byte offset of the
// end of the last valid frame.
func scanFrames(f *os.File) (payloads [][]byte, good int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	r := io.Reader(f)
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF here is a clean end; a partial header is a torn write.
			return payloads, good, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrameSize {
			return payloads, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return payloads, good, nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return payloads, good, nil
		}
		payloads = append(payloads, payload)
		good += frameHeaderSize + int64(n)
	}
}

// Append writes one frame and forces it to disk. The payload is not
// considered journaled until Append returns nil.
func (l *logFile) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameSize {
		return fmt.Errorf("journal: frame payload size %d out of range", len(payload))
	}
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

func (l *logFile) Close() error { return l.f.Close() }

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so readers only ever
// see the old or the new complete contents. The directory is fsync'd too
// so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Read-only directory handle: nothing buffered can be lost on close.
	defer func() { _ = d.Close() }()
	// Some filesystems reject fsync on directories; the rename is still
	// atomic there, just not durability-ordered, which is the best
	// available.
	_ = d.Sync()
	return nil
}
