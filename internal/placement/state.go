package placement

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshotter is implemented by strategies whose complete decision state can
// be serialized and later restored into a freshly constructed placer of the
// same configuration. The contract is decision fidelity: after RestoreState,
// every subsequent Place call must return exactly the shard the original
// placer would have chosen for the same stream — the snapshot is the state,
// not an approximation of it.
//
// AppendState appends a self-delimiting binary section to dst and returns
// the extended slice; RestoreState consumes exactly one such section. The
// restoring engine constructs the receiver with a stream-length hint sized
// to the snapshot's placements, not to the producer's hint, so any decision
// state derived from that hint (a capacity bound) belongs in the section.
// Strategies that replay immutable offline data (MetisReplay) do not
// implement the interface — their state is their construction input.
type Snapshotter interface {
	// AppendState appends the strategy's complete decision state to dst.
	AppendState(dst []byte) []byte
	// RestoreState replaces the receiver's state with a section produced by
	// AppendState on an identically configured placer. The receiver must be
	// fresh (no placements); on error the receiver is unusable.
	RestoreState(r *StateReader) error
}

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendInt32s appends a length-prefixed int32 column in little-endian.
func AppendInt32s(dst []byte, vals []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// AppendUint64s appends a length-prefixed uint64 column in little-endian.
func AppendUint64s(dst []byte, vals []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// StateReader consumes the sections AppendState producers emit. The first
// decoding defect sticks: every later read returns zero values and Err
// reports the defect, so decoders can parse a whole section and check the
// error once.
type StateReader struct {
	buf []byte
	err error
}

// NewStateReader wraps a serialized state buffer.
func NewStateReader(buf []byte) *StateReader { return &StateReader{buf: buf} }

// Err returns the first decoding defect, or nil.
func (r *StateReader) Err() error { return r.err }

// Len reports the unconsumed byte count.
func (r *StateReader) Len() int { return len(r.buf) }

func (r *StateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Uvarint consumes one unsigned varint.
func (r *StateReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("placement: truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count consumes a length prefix for elements of elemSize bytes, bounding it
// by the remaining buffer so a corrupt prefix cannot force a huge
// allocation.
func (r *StateReader) count(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/elemSize) {
		r.fail("placement: column of %d entries exceeds %d remaining bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Byte consumes one raw byte.
func (r *StateReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("placement: truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes consumes n raw bytes.
func (r *StateReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.fail("placement: %d raw bytes requested, %d remain", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Int32s consumes one length-prefixed int32 column.
func (r *StateReader) Int32s() []int32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(r.buf[4*i:]))
	}
	r.buf = r.buf[4*n:]
	return vals
}

// Uint64s consumes one length-prefixed uint64 column.
func (r *StateReader) Uint64s() []uint64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(r.buf[8*i:])
	}
	r.buf = r.buf[8*n:]
	return vals
}

// AppendState serializes the assignment: the per-transaction shard column
// (counts are derived on restore).
func (a *Assignment) AppendState(dst []byte) []byte {
	return AppendInt32s(dst, a.shards)
}

// RestoreState replaces the assignment's decisions with a section produced
// by AppendState. The receiver must be empty and keep its shard count; the
// per-shard tallies are rebuilt, and any out-of-range shard fails.
func (a *Assignment) RestoreState(r *StateReader) error {
	shards := r.Int32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(a.shards) != 0 {
		return fmt.Errorf("placement: restore into a non-empty assignment (%d placed)", len(a.shards))
	}
	counts := make([]int64, a.k)
	for i, s := range shards {
		if s < 0 || int(s) >= a.k {
			return fmt.Errorf("placement: snapshot places transaction %d in shard %d of %d", i, s, a.k)
		}
		counts[s]++
	}
	a.shards = shards
	a.counts = counts
	return nil
}

// AppendState implements Snapshotter: the hash placement is stateless beyond
// its recorded decisions.
func (p *Random) AppendState(dst []byte) []byte { return p.a.AppendState(dst) }

// RestoreState implements Snapshotter.
func (p *Random) RestoreState(r *StateReader) error { return p.a.RestoreState(r) }

// AppendState implements Snapshotter: greedy coverage is recomputed per
// placement from the assignment, so the state is the capacity bound the
// decisions were made against followed by the assignment.
func (g *Greedy) AppendState(dst []byte) []byte {
	dst = AppendCapacity(dst, g.cap)
	return g.a.AppendState(dst)
}

// RestoreState implements Snapshotter.
func (g *Greedy) RestoreState(r *StateReader) error {
	c, err := r.Capacity()
	if err != nil {
		return err
	}
	if err := g.a.RestoreState(r); err != nil {
		return err
	}
	g.cap = c
	return nil
}

// AppendCapacity appends a per-shard capacity bound (see CapacityBound).
func AppendCapacity(dst []byte, c int64) []byte {
	return binary.AppendUvarint(dst, uint64(c))
}

// Capacity consumes a bound written by AppendCapacity, rejecting values
// CapacityBound cannot produce.
func (r *StateReader) Capacity() (int64, error) {
	c := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if c < 1 || c > math.MaxInt64 {
		return 0, fmt.Errorf("placement: capacity bound %d out of range", c)
	}
	return int64(c), nil
}

// Compile-time interface compliance checks.
var (
	_ Snapshotter = (*Random)(nil)
	_ Snapshotter = (*Greedy)(nil)
)
