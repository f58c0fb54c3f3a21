package bench

import (
	"context"
	"fmt"
	"io"

	"optchain/experiment"
)

// L2SSweep compares full OptChain against the capacity-bounded T2S-only
// strategy at the peak configuration (ablation A1).
func L2SSweep(p experiment.Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "l2s",
		Description: "L2S term on/off: OptChain vs capacity-bounded T2S under load (ablation A1)",
		Strategies:  []string{"OptChain", "T2S"},
		Shards:      []int{k},
		Rates:       []float64{r},
	}
}

// AblationL2S asks whether the L2S term matters (DESIGN A1): full OptChain
// vs the capacity-bounded T2S-only strategy under load. The expectation —
// T2S alone minimizes cross-TX slightly better but lets queues skew; the
// temporal fitness trades a little cross-TX for balance.
func AblationL2S(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, L2SSweep(p)); err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Ablation A1 — L2S term on/off (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-22s %-8s %-10s %-10s %-10s %-8s\n", "variant", "cross", "steadyTPS", "avgLat(s)", "maxLat(s)", "peakQ")
	for _, v := range []struct {
		name     string
		strategy string
	}{
		{"OptChain (T2S+L2S)", "OptChain"},
		{"T2S only (capacity)", "T2S"},
	} {
		row, err := gridRow(ctx, run, v.strategy, k, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22s %-8.3f %-10.0f %-10.2f %-10.2f %-8d\n",
			v.name, row.CrossFraction, row.SteadyTPS, row.AvgLatencySec, row.MaxLatencySec, row.PeakQueue)
	}
	return nil
}

// ablationAlphas is the damping-factor axis of ablation A2.
var ablationAlphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// AlphaSweep sweeps the PageRank damping factor on the offline cross-TX
// objective (ablation A2; the paper fixes α=0.5).
func AlphaSweep(p experiment.Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "alpha",
		Description: "PageRank damping factor sensitivity on offline cross-TX % (ablation A2)",
		Kind:        experiment.KindPlacement,
		Strategies:  []string{"T2S"},
		Shards:      []int{16},
		Alphas:      ablationAlphas,
	}
}

// AblationAlpha sweeps the PageRank damping factor (DESIGN A2; the paper
// fixes α=0.5) on the offline cross-TX objective.
func AblationAlpha(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	rows, err := run.Collect(ctx, AlphaSweep(p))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Ablation A2 — α sensitivity, offline cross-TX %% (k=%d, n=%d, workload=%s) ==\n", 16, p.TableN, run.Params().WorkloadLabel())
	for i, alpha := range ablationAlphas {
		fmt.Fprintf(w, "alpha=%.1f  cross=%6.2f%%\n", alpha, 100*rows[i].CrossFraction)
	}
	fmt.Fprintln(w, "(paper uses alpha=0.5)")
	return nil
}

// ablationWeights is the Temporal Fitness coefficient axis of ablation A3.
var ablationWeights = []float64{0.003, 0.01, 0.03, 0.1, 0.3}

// WeightSweep sweeps the Temporal Fitness L2S coefficient at the peak
// configuration (ablation A3; the paper fixes 0.01).
func WeightSweep(p experiment.Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "weight",
		Description: "Temporal Fitness L2S coefficient sweep (ablation A3)",
		Strategies:  []string{"OptChain"},
		Shards:      []int{k},
		Rates:       []float64{r},
		L2SWeights:  ablationWeights,
	}
}

// AblationWeight sweeps the Temporal Fitness L2S coefficient (DESIGN A3;
// the paper fixes 0.01), exposing the cross-TX vs balance trade-off.
func AblationWeight(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	rows, err := run.Collect(ctx, WeightSweep(p))
	if err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Ablation A3 — L2S weight sweep (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-8s %-8s %-10s %-10s %-10s %-8s\n", "weight", "cross", "steadyTPS", "avgLat(s)", "maxLat(s)", "peakQ")
	for i, weight := range ablationWeights {
		row := rows[i]
		fmt.Fprintf(w, "%-8.3f %-8.3f %-10.0f %-10.2f %-10.2f %-8d\n",
			weight, row.CrossFraction, row.SteadyTPS, row.AvgLatencySec, row.MaxLatencySec, row.PeakQueue)
	}
	fmt.Fprintln(w, "(paper uses weight=0.01)")
	return nil
}

// backendProtocols and backendPlacers span ablation A4.
var (
	backendProtocols = []string{"omniledger", "rapidchain"}
	backendPlacers   = []string{"OptChain", "OmniLedger"}
)

// BackendSweep crosses commit backends with placement on/off (ablation A4):
// the paper's closing prediction that the benefit transfers to RapidChain.
func BackendSweep(p experiment.Params) experiment.Sweep {
	k, r := maxGrid(p)
	var cells []experiment.Cell
	for _, proto := range backendProtocols {
		for _, placer := range backendPlacers {
			cells = append(cells, experiment.Cell{
				Kind:     experiment.KindSim,
				Strategy: placer,
				Protocol: proto,
				Shards:   k,
				Rate:     r,
				Streamed: p.Streaming,
			})
		}
	}
	return experiment.Sweep{
		Name:        "backend",
		Description: "protocol backend x placement on/off (ablation A4)",
		Cells:       cells,
	}
}

// AblationBackend tests the paper's closing prediction (DESIGN A4): the
// placement benefit transfers from OmniLedger to RapidChain yanking.
func AblationBackend(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	rows, err := run.Collect(ctx, BackendSweep(p))
	if err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Ablation A4 — protocol backend (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-12s %-12s %-8s %-10s %-10s\n", "backend", "placer", "cross", "steadyTPS", "avgLat(s)")
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %-12s %-8.3f %-10.0f %-10.2f\n",
			row.Protocol, row.Strategy, row.CrossFraction, row.SteadyTPS, row.AvgLatencySec)
	}
	fmt.Fprintln(w, "(paper §I: \"we predict a similar level of improvement ... with other sharding protocols such as Rapidchain\")")
	return nil
}
