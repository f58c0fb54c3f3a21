package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
)

// streamDigest drains the bitcoin stream for (n, seed) and hashes every
// field a consumer sees: input references, output count, value, community.
func streamDigest(t *testing.T, n int, seed int64) uint64 {
	t.Helper()
	s, err := NewStream(Config{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b []byte
	var tx StreamTx
	for s.Next(&tx) {
		b = b[:0]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(tx.InTx)))
		for j := range tx.InTx {
			b = binary.LittleEndian.AppendUint32(b, uint32(tx.InTx[j]))
			b = binary.LittleEndian.AppendUint32(b, tx.InIdx[j])
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(tx.Outputs))
		b = binary.LittleEndian.AppendUint64(b, uint64(tx.Value))
		b = binary.LittleEndian.AppendUint32(b, uint32(tx.Community))
		h.Write(b)
	}
	return h.Sum64()
}

// TestBitcoinStreamDigest pins the generated stream bit for bit: any change
// to the RNG draw order, the age draw, or the pool bookkeeping shows up as
// a different digest. The constants were taken before the generator's
// allocation and age-draw optimizations and must never be regenerated to
// make a change pass.
func TestBitcoinStreamDigest(t *testing.T) {
	const n = 200_000
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xf77cd660690b249f},
		{7919, 0xc13dc972dce7482e},
	} {
		if got := streamDigest(t, n, c.seed); got != c.want {
			t.Errorf("seed %d: stream digest %#x, want %#x", c.seed, got, c.want)
		}
	}
}

// TestStreamNextAllocs gates the generator's steady state: once the pool,
// the community lists, and the caller's StreamTx have grown, Next allocates
// (almost) nothing.
func TestStreamNextAllocs(t *testing.T) {
	const warm, n = 50_000, 200_000
	s, err := NewStream(Config{N: warm + n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var tx StreamTx
	for i := 0; i < warm; i++ {
		s.Next(&tx)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		s.Next(&tx)
	}
	runtime.ReadMemStats(&m1)
	perTx := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("Stream.Next: %.4f mallocs/tx, %.1f B/tx", perTx, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	if perTx > 0.01 {
		t.Fatalf("Stream.Next allocates %.4f times per tx, budget 0.01", perTx)
	}
}
