package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"optchain"
)

// Simulation phase: Engine.Run of the paper's headline configuration
// (bitcoin stream, 16 shards, OmniLedger, OptChain, 6000 tx/s offered) with
// committees cut to simValidators so one run takes seconds.

const simProtocol = "OmniLedger"

// paperMetrics are one simulation's virtual-time results; they repeat
// exactly for one seed and commit.
type paperMetrics struct {
	steadyTPS, p50, p99, cross float64
}

type simStats struct {
	txs       int
	correct   bool
	attempted int64
	failed    int64

	seeds   []paperMetrics        // indexed by sub-seed
	results []*optchain.SimResult // first run of each sub-seed
	procs   []procStats
	txPerS  []float64 // per run, per CPU second

	// traced run only
	wallPerSimS float64
	queueMax    int
	simShare    float64
	overhead    float64
}

func newSimEngine(seed int64, txs int, workload, strategy string, opts ...optchain.Option) (*optchain.Engine, error) {
	return optchain.New(append([]optchain.Option{
		optchain.WithShards(shards),
		optchain.WithValidators(simValidators),
		optchain.WithRate(simRate),
		optchain.WithProtocol(simProtocol),
		optchain.WithStrategy(strategy),
		optchain.WithWorkload(workload, nil),
		optchain.WithTxs(txs),
		optchain.WithSeed(seed),
	}, opts...)...)
}

// runSim cycles the simulation over the run's sub-seeds until budget is
// spent, covering each sub-seed at least once; a traced run then adds one
// traced simulation.
func runSim(seed int64, txs int, budget time.Duration, trace bool) (*simStats, error) {
	ss := &simStats{txs: txs, correct: true}
	start := time.Now()
	for i := 0; i < subSeeds || time.Since(start) < budget; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		eng, err := newSimEngine(subSeed(seed, i), txs, placeWorkload, placeStrategy)
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		res, err := eng.Run(context.Background())
		cpu := cpuTime() - c0
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("Run: %w", err)
		}
		ss.txPerS = append(ss.txPerS, float64(txs)/cpu.Seconds())
		ss.check(res, i%subSeeds)
		if i < subSeeds {
			ss.results = append(ss.results, res)
			ss.procs = append(ss.procs, procStats{
				allocPerTx: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(txs),
				gcCycles:   float64(m1.NumGC - m0.NumGC),
			})
		}
	}
	if trace {
		if err := ss.traced(subSeed(seed, 0)); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// check counts the run's transactions and requires every one committed
// and the paper metrics identical to the sub-seed's earlier runs.
func (ss *simStats) check(res *optchain.SimResult, sub int) {
	ss.attempted += int64(res.Total)
	if res.Total != ss.txs || res.Committed != res.Total {
		ss.correct = false
		ss.failed += int64(res.Total - res.Committed)
		fmt.Fprintf(os.Stderr, "sim: committed %d of %d (stream %d)\n", res.Committed, res.Total, ss.txs)
	}
	pm := paperMetrics{res.SteadyTPS, res.P50, res.P99, res.CrossFraction}
	if sub == len(ss.seeds) {
		ss.seeds = append(ss.seeds, pm)
	} else if pm != ss.seeds[sub] {
		ss.correct = false
		fmt.Fprintf(os.Stderr, "sim: paper metrics %+v differ from the same seed's earlier %+v\n", pm, ss.seeds[sub])
	}
}

// traced reruns the first sub-seed's simulation with the timing strategy
// and source and a progress callback every virtual second.
func (ss *simStats) traced(seed int64) error {
	type tick struct {
		wall time.Time
		sim  time.Duration
	}
	var ticks []tick
	eng, err := newSimEngine(seed, ss.txs, tracedWorkload, tracedStrategy,
		optchain.WithProgress(func(s optchain.MetricsSnapshot) {
			ticks = append(ticks, tick{time.Now(), s.SimTime})
			ss.queueMax = max(ss.queueMax, s.QueueMax)
		}),
		optchain.WithProgressEvery(time.Second))
	if err != nil {
		return err
	}
	tr.reset()
	c0, t0 := cpuTime(), time.Now()
	res, err := eng.Run(context.Background())
	wall, cpu := time.Since(t0), cpuTime()-c0
	if err != nil {
		return fmt.Errorf("traced Run: %w", err)
	}
	ss.check(res, 0)
	if len(ticks) < 2 {
		return fmt.Errorf("traced Run made %d progress ticks", len(ticks))
	}
	first, last := ticks[0], ticks[len(ticks)-1]
	ss.wallPerSimS = last.wall.Sub(first.wall).Seconds() * 1000 / (last.sim - first.sim).Seconds()
	ss.simShare = tr.placeTime.Seconds() / wall.Seconds()
	ss.overhead = median(ss.txPerS)/(float64(ss.txs)/cpu.Seconds()) - 1
	return nil
}

// mean averages one figure over the sub-seeds' first runs.
func mean[T any](xs []T, f func(T) float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += f(x)
	}
	return sum / float64(len(xs))
}

func (ss *simStats) procCost() procStats {
	return procStats{
		allocPerTx: mean(ss.procs, func(p procStats) float64 { return p.allocPerTx }),
		gcCycles:   mean(ss.procs, func(p procStats) float64 { return p.gcCycles }),
	}
}

func (ss *simStats) endToEnd(m map[string]metric) {
	m["sim_tx_per_cpu_s"] = metric{median(ss.txPerS), "tx/s"}
	m["sim_steady_tps"] = metric{mean(ss.seeds, func(p paperMetrics) float64 { return p.steadyTPS }), "tx/s"}
	m["sim_p50_confirm_s"] = metric{mean(ss.seeds, func(p paperMetrics) float64 { return p.p50 }), "s"}
	m["sim_p99_confirm_s"] = metric{mean(ss.seeds, func(p paperMetrics) float64 { return p.p99 }), "s"}
	m["sim_cross_fraction"] = metric{mean(ss.seeds, func(p paperMetrics) float64 { return p.cross }), "frac"}
}

func (ss *simStats) layerMetrics(m map[string]metric) {
	perTx := func(f func(r *optchain.SimResult) int64) float64 {
		return mean(ss.results, func(r *optchain.SimResult) float64 { return float64(f(r)) / float64(r.Total) })
	}
	m["placement.sim_share"] = metric{ss.simShare, "ratio"}
	m["sim.wall_ms_per_sim_s"] = metric{ss.wallPerSimS, "ms"}
	m["sim.blocks_per_ktx"] = metric{1000 * perTx(func(r *optchain.SimResult) int64 { return r.BlocksCut }), "count"}
	m["sim.items_per_tx"] = metric{perTx(func(r *optchain.SimResult) int64 { return r.ItemsCommitted }), "count"}
	m["sim.deferred_per_tx"] = metric{perTx(func(r *optchain.SimResult) int64 { return r.ItemsDeferred }), "count"}
	m["sim.retries_per_tx"] = metric{perTx(func(r *optchain.SimResult) int64 { return r.Retries }), "count"}
	m["sim.aborts"] = metric{mean(ss.results, func(r *optchain.SimResult) float64 { return float64(r.Aborts) }), "count"}
	m["sim.queue_max"] = metric{float64(ss.queueMax), "count"}
	m["trace.sim_overhead_frac"] = metric{ss.overhead, "ratio"}
}
