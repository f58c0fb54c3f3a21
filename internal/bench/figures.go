package bench

import (
	"context"
	"fmt"
	"io"

	"optchain/experiment"
)

// Fig3 prints, per strategy, the latency and throughput grid over
// (shard count × transaction rate) — the paper's Fig. 3 heat plots.
func Fig3(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, GridSweep(p)); err != nil {
		return err
	}
	shards, rates := simGrids(p)
	fmt.Fprintf(w, "== Fig. 3 — latency & throughput grids (n=%d, %d validators/shard, workload=%s) ==\n", p.N, p.Validators, run.Params().WorkloadLabel())
	for _, s := range placers(p) {
		fmt.Fprintf(w, "-- %s: avg latency seconds (rows: shards, cols: rate) --\n", s)
		fmt.Fprintf(w, "%-7s", "k\\rate")
		for _, r := range rates {
			fmt.Fprintf(w, "%9.0f", r)
		}
		fmt.Fprintln(w)
		for _, k := range shards {
			fmt.Fprintf(w, "%-7d", k)
			for _, r := range rates {
				row, err := gridRow(ctx, run, s, k, r)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%9.2f", row.AvgLatencySec)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "-- %s: steady throughput tps --\n", s)
		fmt.Fprintf(w, "%-7s", "k\\rate")
		for _, r := range rates {
			fmt.Fprintf(w, "%9.0f", r)
		}
		fmt.Fprintln(w)
		for _, k := range shards {
			fmt.Fprintf(w, "%-7d", k)
			for _, r := range rates {
				row, err := gridRow(ctx, run, s, k, r)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%9.0f", row.SteadyTPS)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig4 prints system throughput: (a) at the largest shard count across
// rates, and (b) the maximum over the whole grid per strategy.
func Fig4(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, GridSweep(p)); err != nil {
		return err
	}
	shards, rates := simGrids(p)
	kMax := shards[len(shards)-1]
	fmt.Fprintf(w, "== Fig. 4a — throughput at %d shards (workload=%s) ==\n", kMax, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-10s", "rate")
	for _, s := range placers(p) {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rates {
		fmt.Fprintf(w, "%-10.0f", r)
		for _, s := range placers(p) {
			row, err := gridRow(ctx, run, s, kMax, r)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12.0f", row.SteadyTPS)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "== Fig. 4b — max throughput over all (rate, shards) ==")
	for _, s := range placers(p) {
		best := 0.0
		bestK, bestR := 0, 0.0
		for _, k := range shards {
			for _, r := range rates {
				row, err := gridRow(ctx, run, s, k, r)
				if err != nil {
					return err
				}
				if row.SteadyTPS > best {
					best, bestK, bestR = row.SteadyTPS, k, r
				}
			}
		}
		fmt.Fprintf(w, "%-12s max=%6.0f tps (at %d shards, rate %.0f)\n", s, best, bestK, bestR)
	}
	fmt.Fprintln(w, "(paper: OptChain's max at 16 shards is 34.4%/30.5%/16.6% above OmniLedger/Metis/Greedy)")
	return nil
}

// Fig5 prints the committed-transactions timeline at the peak
// configuration (paper: 16 shards, 6000 tps, 50 s windows).
func Fig5(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, PeakSweep(p)); err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Fig. 5 — committed tx per window (k=%d, rate=%.0f, workload=%s; windows scale with run length) ==\n", k, r, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-8s", "window")
	for _, s := range placers(p) {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	series := make(map[string][]int64, len(placers(p)))
	maxLen := 0
	for _, s := range placers(p) {
		row, err := gridRow(ctx, run, s, k, r)
		if err != nil {
			return err
		}
		series[s] = row.Result.WindowCommits
		if len(row.Result.WindowCommits) > maxLen {
			maxLen = len(row.Result.WindowCommits)
		}
	}
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(w, "%-8d", i)
		for _, s := range placers(p) {
			v := int64(0)
			if i < len(series[s]) {
				v = series[s][i]
			}
			fmt.Fprintf(w, "%12d", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig6 prints each strategy's max and min shard queue sizes over time at
// the peak configuration.
func Fig6(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, PeakSweep(p)); err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Fig. 6 — max/min shard queue sizes over time (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	for _, s := range placers(p) {
		row, err := gridRow(ctx, run, s, k, r)
		if err != nil {
			return err
		}
		res := row.Result
		maxs, mins := res.Queues.MaxMin()
		fmt.Fprintf(w, "-- %s (peak max queue: %d) --\n", s, res.Queues.PeakMax())
		step := len(maxs)/12 + 1
		for i := 0; i < len(maxs); i += step {
			fmt.Fprintf(w, "t=%6.0fs  max=%-8d min=%-8d\n", res.Queues.Times[i].Seconds(), maxs[i], mins[i])
		}
	}
	fmt.Fprintln(w, "(paper peaks: OptChain ≈44k; Greedy 230k; OmniLedger 499k; Metis 507k)")
	return nil
}

// Fig7 prints the queue max/min ratio over time — the temporal-balance
// comparison.
func Fig7(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, PeakSweep(p)); err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Fig. 7 — queue size max/min ratio over time (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-8s", "sample")
	for _, s := range placers(p) {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	ratios := make(map[string][]float64, len(placers(p)))
	maxLen := 0
	for _, s := range placers(p) {
		row, err := gridRow(ctx, run, s, k, r)
		if err != nil {
			return err
		}
		ratios[s] = row.Result.Queues.Ratio()
		if len(ratios[s]) > maxLen {
			maxLen = len(ratios[s])
		}
	}
	step := maxLen/15 + 1
	for i := 0; i < maxLen; i += step {
		fmt.Fprintf(w, "%-8d", i)
		for _, s := range placers(p) {
			v := 0.0
			if i < len(ratios[s]) {
				v = ratios[s][i]
			}
			fmt.Fprintf(w, "%12.1f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// latencyFigure factors Figs. 8 and 9 (average vs maximum latency).
func latencyFigure(ctx context.Context, run *experiment.Runner, w io.Writer, title, paperNote string, pick func(experiment.Row) float64) error {
	p := run.Params()
	if err := warm(ctx, run, GridSweep(p)); err != nil {
		return err
	}
	shards, rates := simGrids(p)
	kMax := shards[len(shards)-1]
	fmt.Fprintf(w, "== %s (a) at %d shards (workload=%s) ==\n", title, kMax, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-10s", "rate")
	for _, s := range placers(p) {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rates {
		fmt.Fprintf(w, "%-10.0f", r)
		for _, s := range placers(p) {
			row, err := gridRow(ctx, run, s, kMax, r)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%12.2f", pick(row))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "== %s (b) per rate at its smallest healthy shard count for OptChain ==\n", title)
	for _, r := range rates {
		bestK := shards[len(shards)-1]
		for _, k := range shards {
			row, err := gridRow(ctx, run, "OptChain", k, r)
			if err != nil {
				return err
			}
			if row.SteadyTPS >= 0.93*r {
				bestK = k
				break
			}
		}
		fmt.Fprintf(w, "rate %-6.0f @ k=%-3d", r, bestK)
		for _, s := range placers(p) {
			row, err := gridRow(ctx, run, s, bestK, r)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s=%.2f", s, pick(row))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, paperNote)
	return nil
}

// Fig8 prints average transaction latency.
func Fig8(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	return latencyFigure(ctx, run, w, "Fig. 8 — average latency (s)",
		"(paper: OptChain 8.7s at 4000tps/16 shards; OmniLedger 346.2s at 6000/16)",
		func(r experiment.Row) float64 { return r.AvgLatencySec })
}

// Fig9 prints maximum transaction latency.
func Fig9(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	return latencyFigure(ctx, run, w, "Fig. 9 — maximum latency (s)",
		"(paper at 6000/16: OptChain 100.9s; OmniLedger 1309.5s; Metis 1345.9s; Greedy 628.9s)",
		func(r experiment.Row) float64 { return r.MaxLatencySec })
}

// Fig10 prints the latency CDF at the peak configuration.
func Fig10(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, PeakSweep(p)); err != nil {
		return err
	}
	k, r := maxGrid(p)
	fmt.Fprintf(w, "== Fig. 10 — latency CDF (k=%d, rate=%.0f, workload=%s) ==\n", k, r, run.Params().WorkloadLabel())
	for _, s := range placers(p) {
		row, err := gridRow(ctx, run, s, k, r)
		if err != nil {
			return err
		}
		res := row.Result
		fmt.Fprintf(w, "-- %s: fraction confirmed within 10s = %.3f --\n", s, res.Latencies.FractionWithin(10e9))
		for _, pt := range res.Latencies.CDF(8) {
			fmt.Fprintf(w, "  P%.0f <= %.2fs\n", pt.Fraction*100, pt.X)
		}
	}
	fmt.Fprintln(w, "(paper: within 10s — OptChain 70%, Greedy 41.2%, OmniLedger 7.9%, Metis 2.4%)")
	return nil
}

// Fig11 measures OptChain's maximum sustainable rate as shards scale: each
// shard count is offered more load than it can serve, and the steady-state
// commit rate is the capacity. The stream grows with the offered rate so
// the steady window stays long enough to measure.
func Fig11(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	sweep := SaturationSweep(p)
	rows, err := run.Collect(ctx, sweep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig. 11 — OptChain scalability: sustainable tps vs shard count (workload=%s) ==\n", run.Params().WorkloadLabel())
	for _, row := range rows {
		fmt.Fprintf(w, "k=%-3d offered=%-6.0f sustainable=%-6.0f avgLat=%.2fs\n",
			row.Shards, row.Rate, row.SteadyTPS, row.AvgLatencySec)
	}
	fmt.Fprintln(w, "(paper: near-linear scaling, >20000 tps at 62 shards, confirmation never above 11s when healthy)")
	return nil
}
