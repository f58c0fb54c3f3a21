package bench

import (
	"context"
	"fmt"
	"io"

	"optchain/experiment"
)

// Scenarios compares the placement strategies across every workload
// scenario — the dimension the paper's single-trace evaluation lacks.
// Per (scenario, strategy) cell it reports steady-state throughput,
// cross-shard fraction, retries, and the peak queue depth: together these
// show where lineage-aware fitness wins (bitcoin, hotspot), where it must
// adapt (burst, drift), and its floor (adversarial). Every cell streams its
// scenario — nothing is materialized — which is why Metis sits this sweep
// out.
func Scenarios(ctx context.Context, run *experiment.Runner, w io.Writer) error {
	p := run.Params()
	if err := warm(ctx, run, ScenariosSweep(p)); err != nil {
		return err
	}
	shards, rate := scenarioGrid(p)
	names := scenarioNames(p)
	strategies := scenarioPlacers(p)

	fmt.Fprintf(w, "== Workload scenarios — placement under skew, bursts, drift, and attack (n=%d, k=%d, rate=%.0f, protocol=%s) ==\n",
		p.N, shards, rate, p.Protocol)
	fmt.Fprintf(w, "%-12s %-11s %-10s %-10s %-9s %-9s %-8s\n",
		"scenario", "strategy", "steadyTPS", "commit%", "cross%", "retries", "queueMax")
	for _, n := range names {
		for _, s := range strategies {
			row, err := scenarioRow(ctx, run, n, s, shards, rate)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %-11s %-10.0f %-10.1f %-9.1f %-9d %-8d\n",
				n, s, row.SteadyTPS,
				100*float64(row.Committed)/float64(row.Total),
				100*row.CrossFraction, row.Retries, row.PeakQueue)
		}
	}
	return nil
}
