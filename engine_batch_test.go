package optchain_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"optchain"
)

// collectStream materializes the dataset as StreamTx values.
func collectStream(d *optchain.Dataset) []optchain.StreamTx {
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		txs = append(txs, tx)
	}
	return txs
}

// PlaceBatch must make exactly the decisions the equivalent Place sequence
// makes — the strategy state advances identically — for every built-in
// online strategy.
func TestPlaceBatchMatchesPlaceDecisions(t *testing.T) {
	d := smallData(t)
	txs := collectStream(d)
	const k = 8

	for _, strategy := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
		newEngine := func() *optchain.Engine {
			eng, err := optchain.New(
				optchain.WithStrategy(strategy),
				optchain.WithShards(k),
				optchain.WithDataset(d),
			)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		one := newEngine()
		var want []int
		for _, tx := range txs {
			s, err := one.Place(tx)
			if err != nil {
				t.Fatalf("%s: Place: %v", strategy, err)
			}
			want = append(want, s)
		}

		batch := newEngine()
		var got, buf []int
		// Uneven chunk sizes exercise batch boundaries.
		for lo := 0; lo < len(txs); {
			hi := lo + 1 + (lo % 97)
			if hi > len(txs) {
				hi = len(txs)
			}
			var err error
			buf, err = batch.PlaceBatch(txs[lo:hi], buf)
			if err != nil {
				t.Fatalf("%s: PlaceBatch: %v", strategy, err)
			}
			got = append(got, buf...)
			lo = hi
		}

		if len(got) != len(want) {
			t.Fatalf("%s: placed %d via batch, %d via Place", strategy, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: decision %d differs: batch=%d place=%d", strategy, i, got[i], want[i])
			}
		}

		sa, sb := one.Stats(), batch.Stats()
		if sa.Placed != sb.Placed || sa.Cross != sb.Cross || sa.CrossFraction != sb.CrossFraction {
			t.Fatalf("%s: stats diverge: place=%+v batch=%+v", strategy, sa, sb)
		}
	}
}

// A failing transaction mid-batch keeps the placements before it (exactly
// like a failing Place call); the error names the absolute stream position
// and len(result) gives the batch offset.
func TestPlaceBatchPartialFailure(t *testing.T) {
	eng, err := optchain.New(optchain.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	txs := []optchain.StreamTx{
		{Outputs: 2},          // coinbase, ok
		{Inputs: []int{0}},    // ok
		{Inputs: []int{99}},   // forward reference: fails
		{Inputs: []int{0, 1}}, // never reached
	}
	shards, err := eng.PlaceBatch(txs, nil)
	if !errors.Is(err, optchain.ErrBadInput) {
		t.Fatalf("error = %v, want ErrBadInput", err)
	}
	if len(shards) != 2 {
		t.Fatalf("placed %d before the failure, want 2", len(shards))
	}
	if st := eng.Stats(); st.Placed != 2 {
		t.Fatalf("stats after partial batch = %+v", st)
	}
	// The engine remains usable: the failed transaction was rolled back.
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{0, 1}}); err != nil {
		t.Fatalf("Place after failed batch: %v", err)
	}
}

// The result slice is reused across batches when the caller provides one.
func TestPlaceBatchReusesResultSlice(t *testing.T) {
	eng, err := optchain.New(optchain.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 64)
	txs := make([]optchain.StreamTx, 16)
	got, err := eng.PlaceBatch(txs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txs) || cap(got) != cap(buf) {
		t.Fatalf("len=%d cap=%d, want len=%d cap=%d (reused)", len(got), cap(got), len(txs), cap(buf))
	}
}

// Chunk boundaries change batching only, never decisions: PlaceStream
// (which cuts the stream at DefaultBatchSize) and PlaceBatch at several
// chunk sizes, on a stream longer than DefaultBatchSize, all reproduce the
// one-Place-per-transaction decisions exactly.
func TestBatchSizeDoesNotChangeSerialDecisions(t *testing.T) {
	const n = 3000
	if n <= optchain.DefaultBatchSize {
		t.Fatalf("stream of %d does not cross a DefaultBatchSize (%d) boundary", n, optchain.DefaultBatchSize)
	}
	d := smallDataset(t, n)
	txs := collectStream(d)
	newEngine := func() *optchain.Engine {
		eng, err := optchain.New(optchain.WithShards(8), optchain.WithDataset(d))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := newEngine()
	for _, tx := range txs {
		if _, err := ref.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	assertSameDecisions := func(name string, eng *optchain.Engine) {
		t.Helper()
		want, got := ref.Stats(), eng.Stats()
		if got.Placed != want.Placed || got.Cross != want.Cross {
			t.Fatalf("%s changed decisions: %+v vs %+v", name, got, want)
		}
		a, b := ref.Assignment(), eng.Assignment()
		for u := 0; u < n; u++ {
			if a.ShardOf(optchain.Node(u)) != b.ShardOf(optchain.Node(u)) {
				t.Fatalf("%s: decision %d differs", name, u)
			}
		}
	}

	stream := newEngine()
	if _, err := stream.PlaceStream(optchain.DatasetStream(d)); err != nil {
		t.Fatal(err)
	}
	assertSameDecisions("PlaceStream", stream)
	for _, bs := range []int{1, 7, 333, optchain.DefaultBatchSize + 1, 5000} {
		eng := newEngine()
		var buf []int
		for lo := 0; lo < n; lo += bs {
			var err error
			if buf, err = eng.PlaceBatch(txs[lo:min(lo+bs, n)], buf); err != nil {
				t.Fatalf("batch size %d: %v", bs, err)
			}
		}
		assertSameDecisions(fmt.Sprintf("batch size %d", bs), eng)
	}
}

// Concurrent PlaceBatch and stats/snapshot reads must be race-free (run
// under -race in CI).
func TestPlaceBatchConcurrentReadersRace(t *testing.T) {
	d := smallData(t)
	txs := collectStream(d)
	eng, err := optchain.New(optchain.WithShards(8), optchain.WithDataset(d))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = eng.MetricsSnapshot()
				_ = eng.Stats()
				_ = eng.CrossShardFraction()
			}
		}()
	}

	var buf []int
	for lo := 0; lo < len(txs); lo += 256 {
		if buf, err = eng.PlaceBatch(txs[lo:min(lo+256, len(txs))], buf); err != nil {
			break
		}
	}
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("PlaceBatch: %v", err)
	}
	if st := eng.Stats(); st.Placed != len(txs) {
		t.Fatalf("placed %d, want %d", st.Placed, len(txs))
	}
}
