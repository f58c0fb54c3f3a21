package bench

import (
	"context"
	"fmt"
	"io"

	"optchain/experiment"
	"optchain/internal/txgraph"
)

// Fig2 prints the TaN-network characterization (paper Fig. 2 and §IV-A):
// degree distributions, cumulative fractions, average degree over time, and
// the node census.
func Fig2(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := run.Params()
	d, err := run.Dataset(p.TableN)
	if err != nil {
		return err
	}
	g, err := d.BuildGraph()
	if err != nil {
		return err
	}
	c := g.TakeCensus()
	fmt.Fprintf(w, "== Fig. 2 — TaN network statistics (n=%d, workload=%s) ==\n", c.Nodes, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "nodes=%d edges=%d avg-degree=%.2f (paper: 2.3)\n", c.Nodes, c.Edges, c.AvgInDeg)
	fmt.Fprintf(w, "coinbase=%d unspent=%d isolated=%d\n", c.Coinbase, c.Unspent, c.Isolated)

	in, out := g.DegreeHistograms()
	fmt.Fprintln(w, "-- Fig. 2a: degree distribution (log-log sample points) --")
	fmt.Fprintf(w, "%-8s %-12s %-12s\n", "degree", "#nodes(in)", "#nodes(out)")
	for deg := 1; deg < len(in) || deg < len(out); deg *= 2 {
		ic, oc := int64(0), int64(0)
		if deg < len(in) {
			ic = in[deg]
		}
		if deg < len(out) {
			oc = out[deg]
		}
		fmt.Fprintf(w, "%-8d %-12d %-12d\n", deg, ic, oc)
	}

	inCum := txgraph.CumulativeFraction(in)
	outCum := txgraph.CumulativeFraction(out)
	fmt.Fprintln(w, "-- Fig. 2b: cumulative distribution --")
	at := func(cum []float64, d int) float64 {
		if d >= len(cum) {
			return 1
		}
		return cum[d]
	}
	fmt.Fprintf(w, "P(in<3)=%.3f (paper: 0.931)  P(out<3)=%.3f (paper: 0.863)  P(out<10)=%.3f (paper: 0.976)\n",
		at(inCum, 2), at(outCum, 2), at(outCum, 9))

	fmt.Fprintln(w, "-- Fig. 2c: average degree over time (10 prefix samples) --")
	series := g.AverageDegreeSeries(10)
	for i, v := range series {
		fmt.Fprintf(w, "prefix %3d%%: %.3f\n", (i+1)*10, v)
	}
	return nil
}

// tableINames is the strategy column order of Table I.
var tableINames = []string{"Metis", "Greedy", "OmniLedger", "T2S"}

// TableISweep is the "from scratch" offline placement sweep behind Table I:
// every strategy places the whole stream into empty shards.
func TableISweep(p experiment.Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "table1",
		Description: "offline % cross-TX from scratch per (shards x strategy) — Table I",
		Kind:        experiment.KindPlacement,
		Strategies:  tableINames,
		Shards:      tableShards(p),
	}
}

// placementCell is the canonical offline-table cell.
func placementCell(strategy string, k, warm int) experiment.Cell {
	return experiment.Cell{
		Kind:     experiment.KindPlacement,
		Strategy: strategy,
		Shards:   k,
		Warm:     warm,
	}
}

// TableI reproduces "Percentage of cross-TXs when running from scratch":
// every strategy places the whole stream into empty shards.
func TableI(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, TableISweep(p)); err != nil {
		return err
	}
	n := p.TableN
	fmt.Fprintf(w, "== Table I — %% cross-TX from scratch (n=%d, workload=%s) ==\n", n, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-4s %-10s %-10s %-12s %-10s\n", "k", "Metis", "Greedy", "OmniLedger", "T2S")
	for _, k := range tableShards(p) {
		fmt.Fprintf(w, "%-4d", k)
		for i, name := range tableINames {
			row, err := run.Cell(ctx, placementCell(name, k, 0))
			if err != nil {
				return err
			}
			width := []int{10, 10, 12, 10}[i]
			fmt.Fprintf(w, " %-*.2f", width, 100*row.CrossFraction)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper, k=16: Metis 4.70, Greedy 28.14, OmniLedger 94.87, T2S 15.73)")
	return nil
}

// tableIINames is the strategy column order of Table II (Metis seeds the
// warm start, so it is not a competitor).
var tableIINames = []string{"Greedy", "OmniLedger", "T2S"}

// tableIIWarm returns the warm-start prefix: the paper partitions a 30M
// prefix, then streams 1M transactions; we keep the same ~30:1 proportion
// at reduced scale.
func tableIIWarm(p experiment.Params) int { return p.TableN * 30 / 31 }

// TableIISweep is the warm-start offline placement sweep behind Table II:
// a Metis partition seeds the shards and each online strategy places the
// remaining window.
func TableIISweep(p experiment.Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "table2",
		Description: "offline cross-TX count after a Metis warm start — Table II",
		Kind:        experiment.KindPlacement,
		Strategies:  tableIINames,
		Shards:      tableShards(p),
		Warm:        tableIIWarm(p),
	}
}

// TableII reproduces "Number of cross-TXs when running from a certain stage
// of the system": a Metis partition seeds the shards and each online
// strategy places the remaining window.
func TableII(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, TableIISweep(p)); err != nil {
		return err
	}
	n := p.TableN
	warm := tableIIWarm(p)
	window := n - warm
	fmt.Fprintf(w, "== Table II — # cross-TX in a %d-tx window after a %d-tx Metis warm start (workload=%s) ==\n", window, warm, run.Params().WorkloadLabel())
	fmt.Fprintf(w, "%-4s %-10s %-12s %-10s\n", "k", "Greedy", "OmniLedger", "T2S")
	for _, k := range tableShards(p) {
		fmt.Fprintf(w, "%-4d", k)
		for i, name := range tableIINames {
			row, err := run.Cell(ctx, placementCell(name, k, warm))
			if err != nil {
				return err
			}
			width := []int{10, 12, 10}[i]
			fmt.Fprintf(w, " %-*d", width, row.Cross)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper, k=16 of 1M txs: Greedy 441267, OmniLedger 960935, T2S 226171)")
	return nil
}
