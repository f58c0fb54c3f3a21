package core

import (
	"strings"
	"testing"

	"optchain/internal/dataset"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

type snapPlacer interface {
	placement.Placer
	placement.Snapshotter
}

// TestCoreSnapshotterRoundTrip: T2S and full OptChain snapshot mid-stream
// and the restored placer continues with exactly the decisions of an
// uninterrupted run — the Snapshotter decision-fidelity contract over the
// slab arena, span table, and out-degree columns.
func TestCoreSnapshotterRoundTrip(t *testing.T) {
	const k, n, half = 4, 1200, 600
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 33
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mks := map[string]func() snapPlacer{
		"T2S":      func() snapPlacer { return NewT2SPlacer(k, n, DefaultAlpha, 0.1) },
		"OptChain": func() snapPlacer { return NewOptChain(OptChainConfig{K: k, N: n}) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			ref, cut := mk(), mk()
			want := make([]int, n)
			var buf []txgraph.Node
			for i := 0; i < n; i++ {
				buf = d.InputTxNodes(i, buf)
				want[i] = ref.Place(txgraph.Node(i), buf)
				if i < half {
					if got := cut.Place(txgraph.Node(i), buf); got != want[i] {
						t.Fatalf("tx %d: %d vs reference %d before snapshot", i, got, want[i])
					}
				}
			}
			blob := cut.AppendState(nil)

			fresh := mk()
			r := placement.NewStateReader(blob)
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
				buf = d.InputTxNodes(i, buf)
				if got := fresh.Place(txgraph.Node(i), buf); got != want[i] {
					t.Fatalf("%s diverges at tx %d after restore: %d, uninterrupted run chose %d",
						fresh.Name(), i, got, want[i])
				}
			}
		})
	}
}

// corruptSection builds a T2S state section (assignment column + index
// columns) from raw parts, for defect injection.
func corruptSection(asnShards, slabShards []int32, slabVals []uint64, lens, outDeg []int32) []byte {
	var b []byte
	b = placement.AppendInt32s(b, asnShards)
	b = placement.AppendInt32s(b, slabShards)
	b = placement.AppendUint64s(b, slabVals)
	b = placement.AppendInt32s(b, lens)
	b = placement.AppendInt32s(b, outDeg)
	return b
}

func TestCoreRestoreDefects(t *testing.T) {
	const k, n = 4, 16
	cases := map[string]struct {
		blob []byte
		want string
	}{
		"slab columns disagree": {
			blob: corruptSection(nil, []int32{0}, nil, nil, nil),
			want: "slab columns disagree",
		},
		"per-node columns disagree": {
			blob: corruptSection(nil, nil, nil, []int32{0}, nil),
			want: "per-node columns disagree",
		},
		"slab shard out of range": {
			blob: corruptSection(nil, []int32{9}, []uint64{1}, nil, nil),
			want: "names shard 9",
		},
		"span exceeds slab": {
			blob: corruptSection(nil, []int32{0, 0}, []uint64{1, 1}, []int32{3}, []int32{0}),
			want: "exceeds slab length",
		},
		"spans undercover slab": {
			blob: corruptSection(nil, []int32{0, 0}, []uint64{1, 1}, []int32{1}, []int32{0}),
			want: "cover 1 of 2",
		},
		"negative out-degree": {
			blob: corruptSection(nil, []int32{0, 0}, []uint64{1, 1}, []int32{2}, []int32{-1}),
			want: "negative out-degree",
		},
		"assignment and index disagree": {
			blob: corruptSection([]int32{0}, nil, nil, nil, nil),
			want: "assignment has 1 placements but the T2S index 0",
		},
		"truncated": {
			blob: corruptSection(nil, nil, nil, nil, nil)[:2],
			want: "truncated",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
			// The T2S section leads with its capacity bound.
			blob := append(placement.AppendCapacity(nil, 5), tc.blob...)
			err := p.RestoreState(placement.NewStateReader(blob))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want substring %q", err, tc.want)
			}
		})
	}

	t.Run("zero capacity bound", func(t *testing.T) {
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		blob := append(placement.AppendCapacity(nil, 0), corruptSection(nil, nil, nil, nil, nil)...)
		err := p.RestoreState(placement.NewStateReader(blob))
		if err == nil || !strings.Contains(err.Error(), "capacity bound 0 out of range") {
			t.Fatalf("zero capacity bound: %v", err)
		}
	})

	t.Run("non-empty receiver", func(t *testing.T) {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.Place(0, nil)
		err := p.RestoreState(placement.NewStateReader(corruptSection(nil, nil, nil, nil, nil)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into placed-into placer: %v", err)
		}
	})
}

// TestSnapshotBetweenPrepareAndCommit: serializing between Prepare and
// Commit would capture a half-applied score update; it must panic rather
// than emit a silently inconsistent snapshot.
func TestSnapshotBetweenPrepareAndCommit(t *testing.T) {
	asn := placement.NewAssignment(2, 4)
	idx := NewT2SIndex(0.5, 0, asn, 4)
	idx.Prepare(0, nil)
	mustPanic(t, func() { idx.appendState(nil) })
}
