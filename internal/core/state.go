package core

import (
	"fmt"

	"optchain/internal/placement"
)

// appendState serializes the index's complete incremental state: the slab
// arena columns, the per-node span lengths (offsets are cumulative, so only
// lengths are stored), and the online out-degrees. Configuration (alpha,
// truncation, normalization) is construction input, not state — the restore
// target must be built with the same parameters.
func (t *T2SIndex) appendState(dst []byte) []byte {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	dst = placement.AppendInt32s(dst, t.slabShards)
	dst = placement.AppendUint64s(dst, t.slabVals)
	lens := make([]int32, len(t.spans))
	for i, sp := range t.spans {
		lens[i] = sp.n
	}
	dst = placement.AppendInt32s(dst, lens)
	dst = placement.AppendInt32s(dst, t.outDeg)
	return dst
}

// restoreState replaces a fresh index's state with an appendState section,
// validating internal consistency: span lengths must tile the slab exactly,
// the per-node columns must agree on the transaction count, and every slab
// shard must be inside the assignment's range.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	slabShards := r.Int32s()
	slabVals := r.Uint64s()
	lens := r.Int32s()
	outDeg := r.Int32s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(t.spans) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.spans))
	}
	if len(slabShards) != len(slabVals) {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", len(slabShards), len(slabVals))
	}
	if len(lens) != len(outDeg) {
		return fmt.Errorf("core: per-node columns disagree: %d spans, %d out-degrees", len(lens), len(outDeg))
	}
	k := int32(t.asn.K())
	for i, s := range slabShards {
		if s < 0 || s >= k {
			return fmt.Errorf("core: slab entry %d names shard %d of %d", i, s, k)
		}
	}
	spans := make([]vecSpan, len(lens))
	off := 0
	for i, n := range lens {
		if n < 0 || off+int(n) > len(slabShards) {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", i, n, off, len(slabShards))
		}
		spans[i] = vecSpan{off: off, n: n}
		off += int(n)
	}
	if off != len(slabShards) {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, len(slabShards))
	}
	for i, d := range outDeg {
		if d < 0 {
			return fmt.Errorf("core: negative out-degree %d at node %d", d, i)
		}
	}
	t.slabShards = slabShards
	t.slabVals = slabVals
	t.spans = spans
	t.outDeg = outDeg
	return nil
}

// AppendState implements placement.Snapshotter: the capacity bound, the
// assignment's decisions, then the T2S index state.
func (p *T2SPlacer) AppendState(dst []byte) []byte {
	dst = placement.AppendCapacity(dst, p.cap)
	dst = p.idx.asn.AppendState(dst)
	return p.idx.appendState(dst)
}

// RestoreState implements placement.Snapshotter. The receiver must be fresh
// and configured identically to the snapshot's producer.
func (p *T2SPlacer) RestoreState(r *placement.StateReader) error {
	c, err := r.Capacity()
	if err != nil {
		return err
	}
	p.cap = c
	if err := p.idx.asn.RestoreState(r); err != nil {
		return err
	}
	if err := p.idx.restoreState(r); err != nil {
		return err
	}
	if placed, spans := p.idx.asn.Len(), len(p.idx.spans); placed != spans {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, spans)
	}
	return nil
}

// AppendState implements placement.Snapshotter. The L2S latency model is
// live telemetry, not decision state: it re-attaches on the restored engine.
func (p *OptChainPlacer) AppendState(dst []byte) []byte {
	dst = p.idx.asn.AppendState(dst)
	return p.idx.appendState(dst)
}

// RestoreState implements placement.Snapshotter.
func (p *OptChainPlacer) RestoreState(r *placement.StateReader) error {
	if err := p.idx.asn.RestoreState(r); err != nil {
		return err
	}
	if err := p.idx.restoreState(r); err != nil {
		return err
	}
	if placed, spans := p.idx.asn.Len(), len(p.idx.spans); placed != spans {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, spans)
	}
	return nil
}

// Compile-time interface compliance checks.
var (
	_ placement.Snapshotter = (*T2SPlacer)(nil)
	_ placement.Snapshotter = (*OptChainPlacer)(nil)
)
