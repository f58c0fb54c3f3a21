package optchain_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"optchain"
	"optchain/internal/registry"
)

func smallData(t *testing.T) *optchain.Dataset {
	t.Helper()
	cfg := optchain.DatasetDefaults()
	cfg.N = 8000
	d, err := optchain.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustPlacer builds a bare registered strategy over d — the placer a
// RegisterStrategy factory would return, outside any Engine.
func mustPlacer(t *testing.T, strategy string, k int, d *optchain.Dataset) optchain.Placer {
	t.Helper()
	p, err := registry.NewStrategy(strategy, optchain.StrategyContext{
		K: k, N: d.Len(),
		OutCounts: func(v optchain.Node) int { return d.NumOutputs(int(v)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFacadeCrossShardOrdering(t *testing.T) {
	d := smallData(t)
	const k = 8
	oc := optchain.CrossShardFraction(d, mustPlacer(t, "OptChain", k, d))
	rnd := optchain.CrossShardFraction(d, mustPlacer(t, "OmniLedger", k, d))
	if oc >= rnd {
		t.Fatalf("OptChain %.3f not below random %.3f", oc, rnd)
	}
	if rnd < 0.7 {
		t.Fatalf("random cross fraction %.3f implausible at k=8", rnd)
	}
}

func TestFacadeAllStrategiesConstruct(t *testing.T) {
	d := smallData(t)
	for _, s := range []string{"OptChain", "T2S", "OmniLedger", "Greedy"} {
		p := mustPlacer(t, s, 4, d)
		if got := optchain.CrossShardFraction(d, p); got < 0 || got > 1 {
			t.Fatalf("%s cross fraction %v", s, got)
		}
	}
}

func TestFacadeOptChainPlacerErrors(t *testing.T) {
	d := smallData(t)
	if _, err := optchain.NewOptChainPlacer(0, d, nil); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("k=0 error = %v", err)
	}
	if _, err := optchain.NewOptChainPlacer(4, nil, nil); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("nil dataset error = %v", err)
	}
	// Metis without a partition is constructible only through the Engine
	// (which computes one) — the bare registry factory must error, not
	// panic.
	if _, err := registry.NewStrategy("Metis", optchain.StrategyContext{K: 4, N: d.Len()}); err == nil {
		t.Fatal("Metis without partition accepted")
	}
}

func TestFacadeMetisPartition(t *testing.T) {
	d := smallData(t)
	part, err := optchain.PartitionTaN(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != d.Len() {
		t.Fatalf("partition covers %d of %d", len(part), d.Len())
	}
	p, err := optchain.NewMetisPlacer(4, part)
	if err != nil {
		t.Fatal(err)
	}
	frac := optchain.CrossShardFraction(d, p)
	if frac > 0.5 {
		t.Fatalf("metis cross fraction %.3f too high", frac)
	}
}

func TestFacadeMetisPlacerRejectsBadPartition(t *testing.T) {
	if _, err := optchain.NewMetisPlacer(4, []int32{0, 1, 9}); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("out-of-range partition error = %v", err)
	}
	if _, err := optchain.NewMetisPlacer(0, []int32{0}); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("k=0 error = %v", err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	d := smallData(t)
	res, err := optchain.SimulateContext(context.Background(), optchain.SimConfig{
		Dataset:    d,
		Shards:     4,
		Validators: 8,
		Rate:       1000,
		Placer:     "OptChain",
		Protocol:   "omniledger",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != d.Len() {
		t.Fatalf("committed %d of %d", res.Committed, d.Len())
	}
}

func TestFacadeTelemetryPlacer(t *testing.T) {
	d := smallData(t)
	tel := optchain.StaticTelemetry{
		Comm:   []float64{10, 10},
		Verify: []float64{1, 0.01}, // shard 1 is slow
	}
	p, err := optchain.NewOptChainPlacer(2, d, tel)
	if err != nil {
		t.Fatal(err)
	}
	optchain.CrossShardFraction(d, p)
	counts := p.Assignment().Counts()
	if counts[1] >= counts[0] {
		t.Fatalf("slow shard got %d of %d placements", counts[1], counts[0]+counts[1])
	}
}

func TestFacadeDatasetRoundTrip(t *testing.T) {
	d := smallData(t)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := optchain.LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), d.Len())
	}
}
