package optchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"optchain/internal/placement"
)

// internalEngine builds a fresh engine for the in-package snapshot tests.
func internalEngine(t testing.TB, strategy string, hint int) *Engine {
	t.Helper()
	e, err := New(WithShards(8), WithStrategy(strategy), WithStreamCapacity(hint), WithSeed(1))
	if err != nil {
		t.Fatalf("New(%s): %v", strategy, err)
	}
	return e
}

// chainStream is a deterministic stream where every transaction spends its
// two predecessors.
func chainStream(n int) []StreamTx {
	txs := make([]StreamTx, n)
	for i := range txs {
		txs[i].Outputs = 1 + i%3
		for _, d := range []int{1, 2} {
			if i-d >= 0 {
				txs[i].Inputs = append(txs[i].Inputs, i-d)
			}
		}
	}
	return txs
}

// snapshotAfter places txs on a fresh engine and returns its snapshot.
func snapshotAfter(t testing.TB, strategy string, hint int, txs []StreamTx) []byte {
	t.Helper()
	e := internalEngine(t, strategy, hint)
	if _, err := e.PlaceBatch(txs, nil); err != nil {
		t.Fatalf("PlaceBatch: %v", err)
	}
	var buf bytes.Buffer
	if err := e.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// resum recomputes the trailing checksum over body (magic included).
func resum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// withCapacityHint re-encodes a snapshot with its capacity hint replaced
// and a valid checksum, so the decoder's hint validation is reached.
func withCapacityHint(t *testing.T, snap []byte, hint uint64) []byte {
	t.Helper()
	body := snap[len(snapMagic) : len(snap)-4]
	sr := placement.NewStateReader(body)
	sr.Uvarint()                // version
	sr.Bytes(int(sr.Uvarint())) // strategy name
	sr.Uvarint()                // shards
	sr.Uvarint()                // alpha
	sr.Uvarint()                // L2S weight
	sr.Byte()                   // exactL2S
	at := len(body) - sr.Len()
	sr.Uvarint() // capacity hint
	if err := sr.Err(); err != nil {
		t.Fatalf("parse header: %v", err)
	}
	out := append([]byte(snapMagic), body[:at]...)
	out = binary.AppendUvarint(out, hint)
	out = append(out, body[len(body)-sr.Len():]...)
	return resum(out)
}

// TestReadSnapshotRejectsCapacityHintOutOfRange: a CRC-valid snapshot whose
// capacity hint does not fit the int32 node space fails with
// ErrBadSnapshot — it neither panics sizing an allocation from it nor
// wraps into a negative hint.
func TestReadSnapshotRejectsCapacityHintOutOfRange(t *testing.T) {
	snap := snapshotAfter(t, "OptChain", 100, chainStream(50))
	for name, hint := range map[string]uint64{
		"huge":        1 << 62,
		"wraps":       1<<63 + 5,
		"above int32": math.MaxInt32 + 1,
		"max uint64":  math.MaxUint64,
	} {
		t.Run(name, func(t *testing.T) {
			e := internalEngine(t, "OptChain", 100)
			err := e.ReadSnapshot(bytes.NewReader(withCapacityHint(t, snap, hint)))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("hint %d: err = %v, want ErrBadSnapshot", hint, err)
			}
		})
	}
}

// TestReadSnapshotLargeHintDoesNotDriveAllocation: an in-range hint far
// above the placements a snapshot holds restores, continues identically,
// and costs allocations proportional to the state, not to the hint.
func TestReadSnapshotLargeHintDoesNotDriveAllocation(t *testing.T) {
	const hint = 1 << 24 // ~600 MB if restore pre-allocated from it
	txs := chainStream(400)
	for _, strategy := range fuzzStrategies {
		t.Run(strategy, func(t *testing.T) {
			ref := internalEngine(t, strategy, 1000)
			if _, err := ref.PlaceBatch(txs[:200], nil); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := ref.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			want, err := ref.PlaceBatch(txs[200:], nil)
			if err != nil {
				t.Fatal(err)
			}

			e := internalEngine(t, strategy, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.ReadSnapshot(bytes.NewReader(withCapacityHint(t, snap.Bytes(), hint))); err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("restore of a 200-tx state allocated %d bytes", grew)
			}
			// Capacity-bounded strategies keep the producer's bound from
			// their own state, so decisions continue unchanged.
			got, err := e.PlaceBatch(txs[200:], nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("restored engine diverges at %d", 200+i)
				}
			}
			// The hint itself is carried forward into later snapshots.
			var again, refAgain bytes.Buffer
			if err := e.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if err := ref.WriteSnapshot(&refAgain); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), withCapacityHint(t, refAgain.Bytes(), hint)) {
				t.Fatal("re-snapshot of the restored engine differs from the uninterrupted engine's")
			}
		})
	}
}

// TestStreamCapacityRange: WithStreamCapacity accepts exactly the range a
// snapshot may carry.
func TestStreamCapacityRange(t *testing.T) {
	for _, n := range []int{0, 1, math.MaxInt32} {
		if _, err := New(WithStreamCapacity(n)); err != nil {
			t.Fatalf("WithStreamCapacity(%d): %v", n, err)
		}
	}
	for _, n := range []int{-1, math.MaxInt32 + 1, math.MaxInt} {
		if _, err := New(WithStreamCapacity(n)); !errors.Is(err, ErrBadOption) {
			t.Fatalf("WithStreamCapacity(%d): err = %v, want ErrBadOption", n, err)
		}
	}
}

// TestReadSnapshotRejectsVersion1: version-1 files (which carried the
// epoch-parallel counters) are refused with a typed error naming both
// versions.
func TestReadSnapshotRejectsVersion1(t *testing.T) {
	snap := snapshotAfter(t, "OptChain", 100, chainStream(20))
	body := bytes.Clone(snap[:len(snap)-4])
	if body[len(snapMagic)] != snapVersion {
		t.Fatalf("version byte = %d, want %d", body[len(snapMagic)], snapVersion)
	}
	body[len(snapMagic)] = 1
	err := internalEngine(t, "OptChain", 100).ReadSnapshot(bytes.NewReader(resum(body)))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("v1 snapshot: err = %v, want ErrBadSnapshot naming version 1, want 2", err)
	}
}

// TestWriteSnapshotRefusesOversize: WriteSnapshot never emits a snapshot
// ReadSnapshot would refuse. The limit is lowered to just around a real
// snapshot's size instead of building a 1 GiB state.
func TestWriteSnapshotRefusesOversize(t *testing.T) {
	defer func(limit int) { snapMaxBytes = limit }(snapMaxBytes)
	snap := snapshotAfter(t, "OptChain", 500, chainStream(300))

	snapMaxBytes = len(snap)
	if got := snapshotAfter(t, "OptChain", 500, chainStream(300)); !bytes.Equal(got, snap) {
		t.Fatal("snapshot at exactly the limit differs")
	}
	if err := internalEngine(t, "OptChain", 500).ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("snapshot at exactly the limit does not restore: %v", err)
	}

	snapMaxBytes = len(snap) - 1
	e := internalEngine(t, "OptChain", 500)
	if _, err := e.PlaceBatch(chainStream(300), nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := e.WriteSnapshot(&out); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("oversize snapshot: err = %v, want ErrBadSnapshot", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused snapshot still wrote %d bytes", out.Len())
	}
}

// fuzzStrategies are the snapshottable strategies the fuzz target restores
// into; the second fuzz argument picks one.
var fuzzStrategies = []string{"OptChain", "T2S", "Greedy"}

// FuzzReadSnapshot: arbitrary bytes restored into a fresh engine either
// succeed or fail with a typed snapshot error — never a panic, never an
// untyped error. With fixCRC the trailing checksum is recomputed, so the
// fuzzer explores the decoder behind the checksum instead of stopping at it.
func FuzzReadSnapshot(f *testing.F) {
	// Small seeds keep minimization of new inputs cheap; the fuzzer grows
	// them as coverage asks.
	txs := chainStream(8)
	for i, strategy := range fuzzStrategies {
		for _, n := range []int{0, 1, 8} {
			snap := snapshotAfter(f, strategy, 128, txs[:n])
			f.Add(snap, uint8(i), false)
			f.Add(snap[:len(snap)-4], uint8(i), true)
		}
	}
	f.Add([]byte(snapMagic), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, which uint8, fixCRC bool) {
		if fixCRC {
			data = resum(bytes.Clone(data))
		}
		e := internalEngine(t, fuzzStrategies[int(which)%len(fuzzStrategies)], 128)
		err := e.ReadSnapshot(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotUnsupported) {
			t.Fatalf("untyped restore error: %v", err)
		}
	})
}
