package sim

import (
	"strings"
	"testing"
	"time"

	"optchain/internal/shard"
	"optchain/internal/workload"
)

// fastSourceConfig mirrors fastConfig for streaming-source runs.
func fastSourceConfig(src workload.Source, txs int, placer string, shards int, rate float64) Config {
	return Config{
		Source:     src,
		Txs:        txs,
		Shards:     shards,
		Validators: 8,
		Rate:       rate,
		Placer:     placer,
		Clients:    8,
		Shard: shard.Config{
			BlockTxs:     100,
			MaxBlockWait: 500 * time.Millisecond,
		},
		QueueSampleEvery: 2 * time.Second,
		CommitWindow:     5 * time.Second,
		Seed:             7,
	}
}

func buildSource(t *testing.T, name string, n, shards int) workload.Source {
	t.Helper()
	src, err := workload.New(name, workload.Params{N: n, Seed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSourceRunCommitsEveryScenario: every standalone workload scenario
// (replay needs a trace-file argument) streams end-to-end through a
// simulation without a materialized Dataset.
func TestSourceRunCommitsEveryScenario(t *testing.T) {
	const n, k = 2000, 4
	for _, name := range workload.StandaloneNames() {
		res, err := Run(fastSourceConfig(buildSource(t, name, n, k), n, "OptChain", k, 500))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Committed != n {
			t.Fatalf("%s: committed %d of %d", name, res.Committed, n)
		}
		if res.ThroughputTPS <= 0 {
			t.Fatalf("%s: degenerate result: %+v", name, res)
		}
	}
}

// TestSourceRunDeterministic: equal seeds give identical commit counts and
// cross-shard fractions.
func TestSourceRunDeterministic(t *testing.T) {
	const n, k = 1500, 4
	run := func() *Result {
		res, err := Run(fastSourceConfig(buildSource(t, "hotspot", n, k), n, "OptChain", k, 500))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CrossFraction != b.CrossFraction || a.Committed != b.Committed {
		t.Fatalf("runs diverge: %v/%d vs %v/%d", a.CrossFraction, a.Committed, b.CrossFraction, b.Committed)
	}
}

// zeroOutSource is a misbehaving custom Source: its second transaction
// claims zero outputs.
type zeroOutSource struct{ i int }

func (z *zeroOutSource) Name() string { return "zero-out" }
func (z *zeroOutSource) Next(tx *workload.Tx) bool {
	z.i++
	tx.Inputs = tx.Inputs[:0]
	tx.Outputs = 2
	tx.Value = 100
	tx.Gap = 1
	if z.i == 2 {
		tx.Outputs = 0
	}
	return z.i <= 10
}

// TestSourceZeroOutputsRejected: a custom Source emitting a zero-output
// transaction aborts the run with a clear error instead of panicking the
// event kernel with a divide-by-zero.
func TestSourceZeroOutputsRejected(t *testing.T) {
	_, err := Run(fastSourceConfig(&zeroOutSource{}, 10, "OptChain", 4, 500))
	if err == nil || !strings.Contains(err.Error(), "zero outputs") {
		t.Fatalf("err = %v, want a zero-outputs source error", err)
	}
}

// TestSourceConfigValidation: Source and Dataset are mutually exclusive and
// Source requires Txs.
func TestSourceConfigValidation(t *testing.T) {
	src := buildSource(t, "burst", 100, 4)
	if _, err := Run(Config{Source: src, Shards: 4, Rate: 100}); err == nil {
		t.Fatal("Source without Txs accepted")
	}
	d := smallDataset(t, 100)
	if _, err := Run(Config{Source: src, Dataset: d, Txs: 100, Shards: 4, Rate: 100}); err == nil {
		t.Fatal("Source plus Dataset accepted")
	}
	if _, err := Run(Config{Shards: 4, Rate: 100}); err == nil {
		t.Fatal("neither Source nor Dataset accepted")
	}
}

// TestSourceBurstShapesArrivals: the burst scenario's Gap modulation
// compresses the issue window relative to nominal 1/rate spacing (~20% of
// transactions arrive boost× faster).
func TestSourceBurstShapesArrivals(t *testing.T) {
	const n, k = 12_000, 4
	cfg := fastSourceConfig(buildSource(t, "burst", n, k), n, "OptChain", k, 2000)
	issueDone := time.Duration(-1)
	cfg.ProgressEvery = 100 * time.Millisecond
	cfg.Progress = func(s Snapshot) {
		if s.Issued == n && issueDone < 0 {
			issueDone = s.SimTime
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d of %d", res.Committed, n)
	}
	nominal := time.Duration(float64(n) / 2000 * float64(time.Second))
	if issueDone < 0 || issueDone >= nominal-nominal/20 {
		t.Fatalf("burst run did not compress arrivals: issue window %v vs nominal %v", issueDone, nominal)
	}
	// And the reported offered-load window must be the actual span, so
	// SteadyTPS is not diluted by idle tail the bursts never offered.
	if got := time.Duration(res.IssueSeconds * float64(time.Second)); got >= nominal {
		t.Fatalf("IssueSeconds %v still reports the nominal window %v", got, nominal)
	}
}
