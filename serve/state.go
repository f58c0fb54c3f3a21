package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// State-file envelope: the server's id map wrapped around the engine's own
// snapshot stream. The engine section is self-checksummed; the envelope
// carries its own trailing CRC-32 over everything before it, so truncation
// anywhere in the file fails loudly.
//
//	magic "OPTCSRV1"
//	uvarint envelope version (1)
//	uvarint id count, then per id (strictly increasing stream index):
//	    uvarint len(id), id bytes, uvarint stream index
//	uvarint engine snapshot length, engine snapshot bytes (see
//	    optchain.Engine.WriteSnapshot)
//	4-byte little-endian CRC-32 (IEEE) of all preceding bytes
const (
	stateMagic   = "OPTCSRV1"
	stateVersion = 1
)

// stateMaxBytes bounds how much loadState will read from disk.
const stateMaxBytes = 1 << 30

// stateImage is one snapshot captured at a batch boundary: the engine's
// snapshot stream and the id map ordered by stream position (ids[i] names
// position i, "" where the request had no id). Stream positions are dense
// in [0, nextIndex), so indexing by position orders the ids without a sort.
// Both halves are immutable once captured, so the image is encoded and
// written while the dispatcher keeps placing.
type stateImage struct {
	ids    []string
	count  int // non-empty entries in ids
	engine []byte
}

// captureState takes the part of a snapshot that needs a batch boundary:
// the engine's snapshot and one pass over the id map. Called only from the
// dispatcher goroutine or after it has been joined; the hold it records is
// exactly how long placement waits for the snapshot.
func (s *Server) captureState() (stateImage, error) {
	start := time.Now()
	defer func() { s.met.snapshotHold(time.Since(start)) }()
	var engineSnap bytes.Buffer
	if err := s.eng.WriteSnapshot(&engineSnap); err != nil {
		return stateImage{}, fmt.Errorf("%w: engine snapshot: %v", ErrBadState, err)
	}
	ids := make([]string, s.nextIndex)
	for id, idx := range s.ids {
		ids[idx] = id
	}
	return stateImage{ids: ids, count: len(s.ids), engine: engineSnap.Bytes()}, nil
}

// encode renders the state-file envelope around the captured image.
func (img stateImage) encode() []byte {
	buf := make([]byte, 0, len(stateMagic)+16*img.count+len(img.engine)+32)
	buf = append(buf, stateMagic...)
	buf = binary.AppendUvarint(buf, stateVersion)
	buf = binary.AppendUvarint(buf, uint64(img.count))
	for idx, id := range img.ids {
		if id == "" {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
		buf = binary.AppendUvarint(buf, uint64(idx))
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.engine)))
	buf = append(buf, img.engine...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// commitState finishes one snapshot attempt: it writes a captured image to
// cfg.StatePath atomically (temp file in the same directory, fsync, rename)
// and counts the attempt exactly once, as written or failed. captureErr is
// the capture's own failure, if any.
func (s *Server) commitState(img stateImage, captureErr error) error {
	if captureErr != nil {
		s.met.snapshotError()
		return captureErr
	}
	data := img.encode()
	if err := writeFileAtomic(s.cfg.StatePath, data); err != nil {
		s.met.snapshotError()
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	s.met.snapshot(len(data))
	return nil
}

// writeLoop is the snapshot writer: it commits captured images one at a
// time in request order, so an older snapshot never renames over a newer
// one, and answers each request once its file is durable. It returns when
// the dispatcher closes the job channel, after the last job.
func (s *Server) writeLoop() {
	defer close(s.written)
	for job := range s.writes {
		job.reply <- s.commitState(job.img, job.err)
	}
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partial state file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// loadState restores a state file into the server's id map and the
// engine. Called from New before any goroutine starts; a missing file is
// not an error (cold start), anything else defective fails with ErrBadState
// so a corrupt file cannot silently cold-start a router mid-stream.
func (s *Server) loadState(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if len(data) > stateMaxBytes {
		return fmt.Errorf("%w: %s exceeds %d bytes", ErrBadState, path, stateMaxBytes)
	}
	return s.decodeState(path, data)
}

// decodeState restores the id map and the engine from the contents of a
// state file; path names the file in errors. Every defect is ErrBadState.
func (s *Server) decodeState(path string, data []byte) error {
	if len(data) < len(stateMagic)+4 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("%w: %s is not a serve state file (bad magic)", ErrBadState, path)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: %s checksum mismatch (corrupt or truncated)", ErrBadState, path)
	}

	rest := body[len(stateMagic):]
	version, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if version != stateVersion {
		return fmt.Errorf("%w: %s version %d, want %d", ErrBadState, path, version, stateVersion)
	}
	count, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if count > uint64(len(rest)) {
		return fmt.Errorf("%w: %s declares %d ids in %d bytes", ErrBadState, path, count, len(rest))
	}
	ids := make(map[string]int, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		var n uint64
		n, rest, err = takeUvarint(rest)
		if err != nil {
			return fmt.Errorf("%w: %s id %d: %v", ErrBadState, path, i, err)
		}
		if n > uint64(len(rest)) {
			return fmt.Errorf("%w: %s id %d truncated", ErrBadState, path, i)
		}
		id := string(rest[:n])
		rest = rest[n:]
		var idx uint64
		idx, rest, err = takeUvarint(rest)
		if err != nil {
			return fmt.Errorf("%w: %s id %q index: %v", ErrBadState, path, id, err)
		}
		// encode writes non-empty ids in strictly increasing stream
		// order; anything else (an empty id, two ids on one position) is a
		// file no server wrote.
		if id == "" {
			return fmt.Errorf("%w: %s id %d is empty", ErrBadState, path, i)
		}
		if i > 0 && idx <= prev {
			return fmt.Errorf("%w: %s id %q at stream position %d does not follow %d", ErrBadState, path, id, idx, prev)
		}
		prev = idx
		if _, dup := ids[id]; dup {
			return fmt.Errorf("%w: %s repeats id %q", ErrBadState, path, id)
		}
		ids[id] = int(idx)
	}
	snapLen, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if snapLen != uint64(len(rest)) {
		return fmt.Errorf("%w: %s engine snapshot length %d, %d bytes remain", ErrBadState, path, snapLen, len(rest))
	}
	if err := s.eng.ReadSnapshot(bytes.NewReader(rest)); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if placed := s.eng.Stats().Placed; count > 0 && prev >= uint64(placed) {
		return fmt.Errorf("%w: %s names stream position %d of %d", ErrBadState, path, prev, placed)
	}
	s.ids = ids
	return nil
}

// takeUvarint consumes one uvarint from b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}
