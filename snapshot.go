package optchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"optchain/internal/placement"
)

// Snapshot errors. Match with errors.Is.
var (
	// ErrBadSnapshot reports a snapshot that is corrupt, truncated, produced
	// by a different format version, or incompatible with the restoring
	// engine's configuration.
	ErrBadSnapshot = errors.New("optchain: invalid or incompatible snapshot")
	// ErrSnapshotUnsupported reports a strategy whose state cannot be
	// exported — it does not implement the snapshot contract (Metis replay,
	// custom registrations without state support).
	ErrSnapshotUnsupported = errors.New("optchain: strategy does not support snapshots")
)

// snapMagic identifies an Engine snapshot stream; snapVersion versions the
// layout that follows it. The whole stream (magic through payload) is
// covered by a trailing CRC-32 so truncation and corruption fail loudly.
//
// Version 2 dropped the three epoch-parallel placement counters version 1
// carried, and moved the capacity bound of the capacity-bounded strategies
// into their own state sections. Version-1 files are not read: they fail
// with ErrBadSnapshot ("version 1, want 2").
const (
	snapMagic   = "OPTCHSNP"
	snapVersion = 2
)

// snapMaxBytes bounds snapshot size in both directions: ReadSnapshot
// buffers at most this much — a corrupt length field must not translate
// into an unbounded allocation — and WriteSnapshot refuses to emit more, so
// a state file is never replaced by one that cannot be restored. At the
// measured ~36 B per placed transaction, 1 GiB holds about 30M placements.
// It is a variable only so in-package tests can exercise the bound without
// a 1 GiB state.
var snapMaxBytes = 1 << 30

// WriteSnapshot serializes the engine's complete streaming-placement state
// — the strategy's decision state (for OptChain/T2S the slab-backed p'(v)
// index and the shard assignment), the per-transaction output counts, and
// the cross-shard counters — as one versioned, checksummed binary stream.
// A restored engine (see ReadSnapshot) makes bit-identical decisions on the
// rest of the stream, so a placement router can restart without replaying
// history.
//
// The engine may have in-flight Place/PlaceBatch callers — the snapshot is
// taken under the engine lock at a batch boundary — but must not be inside
// Run (ErrRunning). Strategies without state export (Metis replay, custom
// registrations not implementing the snapshot contract) fail with
// ErrSnapshotUnsupported. A state larger than the size ReadSnapshot accepts
// fails with ErrBadSnapshot and writes nothing.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	if err := e.ensurePlacerLocked(); err != nil {
		return err
	}
	snap, ok := e.placer.(placement.Snapshotter)
	if !ok {
		return fmt.Errorf("%w: %q", ErrSnapshotUnsupported, e.strategy)
	}

	buf := make([]byte, 0, 64+4*len(e.outs))
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, snapVersion)
	name := strings.ToLower(e.strategy)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(e.shards))
	buf = binary.AppendUvarint(buf, math.Float64bits(e.alpha))
	buf = binary.AppendUvarint(buf, math.Float64bits(e.l2sWeight))
	if e.exactL2S {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(e.placerN))
	buf = binary.AppendUvarint(buf, uint64(e.placed))
	buf = placement.AppendInt32s(buf, e.outs)
	buf = binary.AppendUvarint(buf, uint64(e.cross.Total))
	buf = binary.AppendUvarint(buf, uint64(e.cross.Cross))
	buf = snap.AppendState(buf)
	if len(buf)+4 > snapMaxBytes {
		return fmt.Errorf("%w: %d-byte state exceeds the %d-byte restore limit", ErrBadSnapshot, len(buf)+4, snapMaxBytes)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("%w: write: %v", ErrBadSnapshot, err)
	}
	return nil
}

// ReadSnapshot restores the state WriteSnapshot captured into this engine,
// which must be freshly constructed — same strategy, shard count, alpha,
// and L2S weight as the snapshot's producer, with no transactions placed
// yet. After a successful restore the engine continues the stream exactly
// where the snapshot left off: Stats reflects the restored counters and
// subsequent decisions are bit-identical to the uninterrupted engine's.
//
// Any defect — truncation, checksum mismatch, an unknown version, a
// configuration fingerprint that does not match this engine — fails with
// ErrBadSnapshot naming the disagreement; the engine is left unused only on
// fingerprint errors detected before state adoption, and must be discarded
// after a mid-restore failure.
func (e *Engine) ReadSnapshot(r io.Reader) error {
	data, err := io.ReadAll(io.LimitReader(r, int64(snapMaxBytes)+1))
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrBadSnapshot, err)
	}
	if len(data) > snapMaxBytes {
		return fmt.Errorf("%w: exceeds %d bytes", ErrBadSnapshot, snapMaxBytes)
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: not an engine snapshot (bad magic)", ErrBadSnapshot)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: checksum mismatch (corrupt or truncated)", ErrBadSnapshot)
	}

	sr := placement.NewStateReader(body[len(snapMagic):])
	if v := sr.Uvarint(); sr.Err() == nil && v != snapVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, v, snapVersion)
	}
	name, err := readStateString(sr, sr.Uvarint())
	if err != nil {
		return err
	}
	shards := sr.Uvarint()
	alphaBits := sr.Uvarint()
	weightBits := sr.Uvarint()
	exact := sr.Byte()
	capN := sr.Uvarint()
	placed := sr.Uvarint()
	outs := sr.Int32s()
	crossTotal := sr.Uvarint()
	crossCross := sr.Uvarint()
	if err := sr.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	if e.placer != nil || e.placed != 0 {
		return fmt.Errorf("%w: restore requires a fresh engine (this one has %d placements)", ErrBadSnapshot, e.placed)
	}
	switch {
	case name != strings.ToLower(e.strategy):
		return fmt.Errorf("%w: snapshot strategy %q, engine %q", ErrBadSnapshot, name, e.strategy)
	case int(shards) != e.shards:
		return fmt.Errorf("%w: snapshot has %d shards, engine %d", ErrBadSnapshot, shards, e.shards)
	case alphaBits != math.Float64bits(e.alpha):
		return fmt.Errorf("%w: snapshot alpha %v, engine %v", ErrBadSnapshot, math.Float64frombits(alphaBits), e.alpha)
	case weightBits != math.Float64bits(e.l2sWeight):
		return fmt.Errorf("%w: snapshot L2S weight %v, engine %v", ErrBadSnapshot, math.Float64frombits(weightBits), e.l2sWeight)
	case (exact == 1) != e.exactL2S:
		return fmt.Errorf("%w: snapshot exactL2S=%v, engine %v", ErrBadSnapshot, exact == 1, e.exactL2S)
	case uint64(len(outs)) != placed:
		return fmt.Errorf("%w: %d output counts for %d placed transactions", ErrBadSnapshot, len(outs), placed)
	case crossCross > crossTotal:
		return fmt.Errorf("%w: cross count %d exceeds total %d", ErrBadSnapshot, crossCross, crossTotal)
	case capN > math.MaxInt32:
		return fmt.Errorf("%w: capacity hint %d outside [0, %d]", ErrBadSnapshot, capN, math.MaxInt32)
	}
	if e.dataset != nil {
		if n := e.dataset.Len(); uint64(n) != capN {
			return fmt.Errorf("%w: snapshot capacity hint %d, engine dataset length %d", ErrBadSnapshot, capN, n)
		}
	} else {
		// Build the placer sized to the state the snapshot holds, not to
		// the producer's hint: the restored columns replace whatever the
		// constructor pre-allocates, and a hint the file merely claims must
		// not drive an allocation. Capacity-bounded strategies restore
		// their bound from their own state section.
		e.streamCap = int(placed)
	}
	if err := e.ensurePlacerLocked(); err != nil {
		return err
	}
	if e.dataset == nil {
		// Later snapshots carry the producer's hint forward.
		e.streamCap, e.placerN = int(capN), int(capN)
	}
	snap, ok := e.placer.(placement.Snapshotter)
	if !ok {
		return fmt.Errorf("%w: %q", ErrSnapshotUnsupported, e.strategy)
	}
	if err := snap.RestoreState(sr); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if sr.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after strategy state", ErrBadSnapshot, sr.Len())
	}
	if got := e.placer.Assignment().Len(); uint64(got) != placed {
		return fmt.Errorf("%w: strategy state has %d placements, header says %d", ErrBadSnapshot, got, placed)
	}
	e.placed = int(placed)
	e.outs = outs
	e.cross = placement.CrossCounter{Total: int64(crossTotal), Cross: int64(crossCross)}
	e.refreshStreamSnapshotLocked()
	return nil
}

// readStateString consumes n raw bytes from the reader as a string.
func readStateString(sr *placement.StateReader, n uint64) (string, error) {
	if n > uint64(sr.Len()) {
		return "", fmt.Errorf("%w: truncated strategy name", ErrBadSnapshot)
	}
	b := sr.Bytes(int(n))
	if err := sr.Err(); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return string(b), nil
}
