package placement

import (
	"strings"
	"testing"

	"optchain/internal/txgraph"
)

func TestStateReaderColumns(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 300)
	buf = AppendInt32s(buf, []int32{-1, 0, 1 << 30})
	buf = AppendUint64s(buf, []uint64{0, 1, 1 << 60})
	buf = append(buf, 0x7f)
	buf = append(buf, "raw"...)

	r := NewStateReader(buf)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint %d, want 300", v)
	}
	i32 := r.Int32s()
	if len(i32) != 3 || i32[0] != -1 || i32[1] != 0 || i32[2] != 1<<30 {
		t.Fatalf("int32 column %v", i32)
	}
	u64 := r.Uint64s()
	if len(u64) != 3 || u64[0] != 0 || u64[1] != 1 || u64[2] != 1<<60 {
		t.Fatalf("uint64 column %v", u64)
	}
	if b := r.Byte(); b != 0x7f {
		t.Fatalf("byte %#x, want 0x7f", b)
	}
	if b := r.Bytes(3); string(b) != "raw" {
		t.Fatalf("bytes %q, want raw", b)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("clean decode: err=%v, %d bytes left", r.Err(), r.Len())
	}
}

// TestStateReaderDefects: every malformed section fails, and the first
// defect sticks — later reads return zero values and the original error.
func TestStateReaderDefects(t *testing.T) {
	t.Run("truncated varint", func(t *testing.T) {
		r := NewStateReader([]byte{0x80}) // continuation bit, no next byte
		if r.Uvarint() != 0 || r.Err() == nil {
			t.Fatalf("truncated varint: err=%v", r.Err())
		}
	})
	t.Run("oversized column prefix", func(t *testing.T) {
		// A corrupt length prefix claiming ~2^61 entries must fail the bound
		// check, not attempt the allocation.
		r := NewStateReader(AppendUvarint(nil, 1<<61))
		if r.Int32s() != nil || r.Err() == nil {
			t.Fatal("oversized prefix accepted")
		}
		if !strings.Contains(r.Err().Error(), "exceeds") {
			t.Fatalf("unexpected error: %v", r.Err())
		}
	})
	t.Run("short raw bytes", func(t *testing.T) {
		r := NewStateReader([]byte{1, 2})
		if r.Bytes(3) != nil || r.Err() == nil {
			t.Fatal("short Bytes accepted")
		}
	})
	t.Run("negative raw bytes", func(t *testing.T) {
		r := NewStateReader([]byte{1, 2})
		if r.Bytes(-1) != nil || r.Err() == nil {
			t.Fatal("negative Bytes accepted")
		}
	})
	t.Run("byte at end", func(t *testing.T) {
		r := NewStateReader(nil)
		if r.Byte() != 0 || r.Err() == nil {
			t.Fatal("Byte past end accepted")
		}
	})
	t.Run("errors stick", func(t *testing.T) {
		r := NewStateReader([]byte{0x80})
		r.Uvarint()
		first := r.Err()
		if first == nil {
			t.Fatal("no defect recorded")
		}
		// Every later read is a zero-value no-op reporting the first defect.
		if r.Byte() != 0 || r.Int32s() != nil || r.Uint64s() != nil || r.Bytes(1) != nil {
			t.Fatal("reads after a defect returned data")
		}
		if r.Err() != first {
			t.Fatalf("error replaced: %v -> %v", first, r.Err())
		}
	})
}

func TestAssignmentStateRoundTrip(t *testing.T) {
	const k, n = 3, 10
	a := NewAssignment(k, n)
	for i := 0; i < n; i++ {
		a.Place(txgraph.Node(i), i%k)
	}
	blob := a.AppendState(nil)

	b := NewAssignment(k, n)
	r := NewStateReader(blob)
	if err := b.RestoreState(r); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after restore", r.Len())
	}
	if b.Len() != n {
		t.Fatalf("restored %d placements, want %d", b.Len(), n)
	}
	for i := 0; i < n; i++ {
		if b.ShardOf(txgraph.Node(i)) != a.ShardOf(txgraph.Node(i)) {
			t.Fatalf("tx %d: restored shard %d, want %d", i, b.ShardOf(txgraph.Node(i)), a.ShardOf(txgraph.Node(i)))
		}
	}
	got, want := b.Counts(), a.Counts()
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("shard %d tally %d, want %d", s, got[s], want[s])
		}
	}
}

func TestAssignmentRestoreDefects(t *testing.T) {
	t.Run("non-empty receiver", func(t *testing.T) {
		a := NewAssignment(2, 4)
		a.Place(0, 1)
		err := a.RestoreState(NewStateReader(AppendInt32s(nil, []int32{0})))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into non-empty assignment: %v", err)
		}
	})
	t.Run("shard out of range", func(t *testing.T) {
		a := NewAssignment(3, 4)
		err := a.RestoreState(NewStateReader(AppendInt32s(nil, []int32{0, 7})))
		if err == nil || !strings.Contains(err.Error(), "shard 7") {
			t.Fatalf("out-of-range shard: %v", err)
		}
	})
	t.Run("truncated section", func(t *testing.T) {
		blob := AppendInt32s(nil, []int32{0, 1})
		if err := NewAssignment(2, 4).RestoreState(NewStateReader(blob[:len(blob)-1])); err == nil {
			t.Fatal("truncated section accepted")
		}
	})
	t.Run("length prefix overflowing the element size", func(t *testing.T) {
		// 2^62 int32 entries is 2^64 bytes: the bound check must not wrap.
		blob := append(AppendUvarint(nil, 1<<62), 0, 0, 0, 0)
		if err := NewAssignment(2, 4).RestoreState(NewStateReader(blob)); err == nil {
			t.Fatal("overflowing length prefix accepted")
		}
	})
}

// TestBaselineSnapshotters: Random and Greedy snapshot mid-stream and the
// restored placer continues with exactly the decisions of an uninterrupted
// run — the Snapshotter decision-fidelity contract.
func TestBaselineSnapshotters(t *testing.T) {
	const k, n, half = 4, 400, 200
	// Synthetic stream: tx i spends outputs of up to two earlier txs.
	inputsOf := func(i int) []txgraph.Node {
		var ins []txgraph.Node
		if i > 0 {
			ins = append(ins, txgraph.Node(i*7%i))
		}
		if i > 1 {
			v := txgraph.Node(i * 13 % (i - 1))
			if v != ins[0] {
				ins = append(ins, v)
			}
		}
		return ins
	}
	mks := map[string]func() interface {
		Placer
		Snapshotter
	}{
		"Random": func() interface {
			Placer
			Snapshotter
		} {
			return NewRandom(k, n)
		},
		"Greedy": func() interface {
			Placer
			Snapshotter
		} {
			return NewGreedy(k, n, 0.1)
		},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			ref, cut := mk(), mk()
			want := make([]int, n)
			for i := 0; i < n; i++ {
				ins := inputsOf(i)
				want[i] = ref.Place(txgraph.Node(i), ins)
				if i < half {
					if got := cut.Place(txgraph.Node(i), ins); got != want[i] {
						t.Fatalf("tx %d: %d vs reference %d before snapshot", i, got, want[i])
					}
				}
			}
			blob := cut.AppendState(nil)

			fresh := mk()
			r := NewStateReader(blob)
			if err := fresh.RestoreState(r); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Len() != 0 {
				t.Fatalf("%d bytes left after restore", r.Len())
			}
			if fresh.Assignment().Len() != half {
				t.Fatalf("restored %d placements, want %d", fresh.Assignment().Len(), half)
			}
			for i := half; i < n; i++ {
				if got := fresh.Place(txgraph.Node(i), inputsOf(i)); got != want[i] {
					t.Fatalf("%s diverges at tx %d after restore: %d, uninterrupted run chose %d",
						fresh.Name(), i, got, want[i])
				}
			}
		})
	}
}
