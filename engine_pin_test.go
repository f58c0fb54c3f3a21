package optchain_test

import (
	"hash/fnv"
	"runtime"
	"testing"

	"optchain"
)

// placeBitcoin places n bitcoin-scenario transactions with OptChain on 16
// shards.
func placeBitcoin(t *testing.T, n int, seed int64) (*optchain.Engine, optchain.PlacementStats) {
	t.Helper()
	eng, err := optchain.New(
		optchain.WithShards(16),
		optchain.WithStrategy("OptChain"),
		optchain.WithWorkload("bitcoin", nil),
		optchain.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.PlaceWorkload(n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != n {
		t.Fatalf("placed %d of %d", st.Placed, n)
	}
	return eng, st
}

// TestPlaceWorkloadDigest pins PlaceWorkload's decisions on the paper's
// workload bit for bit: the FNV-64a digest of the shard of every placed
// transaction and the exact cross-shard fraction. The constants were taken
// before the generator's allocation and age-draw optimizations and must
// never be regenerated to make a change pass.
func TestPlaceWorkloadDigest(t *testing.T) {
	const n = 200_000
	for _, c := range []struct {
		seed   int64
		digest uint64
		cross  float64
	}{
		{1, 0x6956398c3fb40a78, 0.068585},
		{7919, 0x19b4a2c52eb2c8ee, 0.07022},
	} {
		eng, st := placeBitcoin(t, n, c.seed)
		h := fnv.New64a()
		a := eng.Assignment()
		var b [1]byte
		for v := 0; v < n; v++ {
			b[0] = byte(a.ShardOf(optchain.Node(v)))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("seed %d: assignment digest %#x, want %#x", c.seed, got, c.digest)
		}
		if st.CrossFraction != c.cross {
			t.Errorf("seed %d: cross fraction %v, want %v", c.seed, st.CrossFraction, c.cross)
		}
	}
}

// TestPlaceWorkloadAllocs gates the batch path end to end: generation,
// input translation, admission, and the kernel together stay near zero
// mallocs per transaction (slice growth amortizes away).
func TestPlaceWorkloadAllocs(t *testing.T) {
	const n = 200_000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	placeBitcoin(t, n, 5)
	runtime.ReadMemStats(&m1)
	perTx := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("PlaceWorkload: %.4f mallocs/tx, %.1f B/tx", perTx, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	if perTx > 0.05 {
		t.Fatalf("PlaceWorkload allocates %.4f times per tx, budget 0.05", perTx)
	}
}
