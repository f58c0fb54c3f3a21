// Package core implements the paper's primary contribution (§IV): the
// Transaction-to-Shard (T2S) score — an incrementally maintained,
// PageRank-style fitness between each arriving transaction and every shard —
// the Latency-to-Shard (L2S) confirmation-latency estimate, and the
// OptChain placement rule (Alg. 1) that maximizes the Temporal Fitness
// p(u)[j] − w·E(j).
package core

import (
	"fmt"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// vecSpan locates one committed p'(v) vector inside the slab arena.
type vecSpan struct {
	off int   // first entry in the slab columns
	n   int32 // entry count
}

// t2sTally is the dense-accumulation scratch state behind Prepare: the merge
// buffer collecting Σ p'(v)/|Nout(v)|, the touched-shard list, the pending
// sparse vector held between Prepare and Commit, and the dense float score
// output.
type t2sTally struct {
	merge []uint64 // dense Q32.32 accumulation buffer
	inUse []bool
	order []int32 // shards touched by the current merge

	// pending holds p'(u) between Prepare and Commit, SoA, sorted by shard.
	pendS       []int32
	pendV       []uint64
	pendingNode txgraph.Node
	hasPending  bool

	scores []float64 // reusable dense output buffer
}

func (t *t2sTally) init(k int) {
	t.merge = make([]uint64, k)
	t.inUse = make([]bool, k)
	t.scores = make([]float64, k)
}

// accumulate merges one input vector scaled by 1/div into the dense buffer.
// The divide happens once per input (as a reciprocal), not once per entry;
// the inner loop is a widening multiply plus a saturating add.
//
//optchain:hotpath the T2S score maintenance inner loop (§IV-B).
func (t *t2sTally) accumulate(shards []int32, vals []uint64, div int64) {
	if div <= 1 {
		// Divisor 1 is common (first spender, single-output parents) and the
		// reciprocal would round every value down a quantum; add directly.
		for i, s := range shards {
			if !t.inUse[s] {
				t.inUse[s] = true
				t.merge[s] = 0
				t.order = append(t.order, s)
			}
			t.merge[s] = qSatAdd(t.merge[s], vals[i])
		}
		return
	}
	r := qRecip(uint64(div))
	for i, s := range shards {
		if !t.inUse[s] {
			t.inUse[s] = true
			t.merge[s] = 0
			t.order = append(t.order, s)
		}
		t.merge[s] = qSatAdd(t.merge[s], qDivRecip(vals[i], r))
	}
}

// finish scales the merged mass by (1−α) and freezes it as the pending
// sparse vector for u, sorted by shard, dropping entries quantized to zero.
//
//optchain:hotpath one call per stream transaction.
func (t *t2sTally) finish(u txgraph.Node, scaleQ uint64) {
	t.pendS = t.pendS[:0]
	t.pendV = t.pendV[:0]
	// The touched-shard list is tiny (bounded by k, typically a handful);
	// a branch-predictable insertion sort over the raw int32s beats
	// sort.Slice's closure and interface dispatch.
	sortShards(t.order)
	for _, s := range t.order {
		if v := qMul(t.merge[s], scaleQ); v > 0 {
			t.pendS = append(t.pendS, s)
			t.pendV = append(t.pendV, v)
		}
		t.inUse[s] = false
		t.merge[s] = 0
	}
	t.order = t.order[:0]
	t.pendingNode = u
	t.hasPending = true
}

// dense expands the pending vector into the float score buffer:
// p(u)[i] = p'(u)[i]/|Si| when normalizing (0 for empty shards — no
// transaction there to be related to), raw p'(u)[i] otherwise.
//
//optchain:hotpath one call per stream transaction.
func (t *t2sTally) dense(counts []int64, normalize bool) []float64 {
	for i := range t.scores {
		t.scores[i] = 0
	}
	for i, s := range t.pendS {
		if !normalize {
			t.scores[s] = qToFloat(t.pendV[i])
			continue
		}
		if c := counts[s]; c > 0 {
			t.scores[s] = qToFloat(t.pendV[i]) / float64(c)
		}
	}
	return t.scores
}

// appendVector splices the α restart mass for the chosen shard into the
// sorted pending vector (pendS/pendV), appends the result to the slab
// columns, applies relative truncation, and returns the extended columns.
//
//optchain:hotpath one call per stream transaction; growth is amortized.
func appendVector(dstS []int32, dstV []uint64, pendS []int32, pendV []uint64, shard int32, alphaQ, truncQ uint64) ([]int32, []uint64) {
	off := len(dstS)
	added := false
	for i, s := range pendS {
		v := pendV[i]
		if !added {
			if s == shard {
				v = qSatAdd(v, alphaQ)
				added = true
			} else if s > shard {
				dstS = append(dstS, shard)
				dstV = append(dstV, alphaQ)
				added = true
			}
		}
		dstS = append(dstS, s)
		dstV = append(dstV, v)
	}
	if !added {
		dstS = append(dstS, shard)
		dstV = append(dstV, alphaQ)
	}
	if truncQ > 0 {
		vec := dstV[off:]
		var max uint64
		for _, v := range vec {
			if v > max {
				max = v
			}
		}
		threshold := qMul(max, truncQ)
		w := off
		for i, v := range vec {
			if v >= threshold {
				dstS[w] = dstS[off+i]
				dstV[w] = v
				w++
			}
		}
		dstS = dstS[:w]
		dstV = dstV[:w]
	}
	return dstS, dstV
}

// T2SIndex maintains the incremental T2S state of §IV-B: for every placed
// transaction v, the un-normalized vector p'(v); for every transaction, the
// current out-degree |Nout(v)| (distinct spenders seen so far — the online
// estimate of the final TaN out-degree).
//
// Per paper, for a new transaction u:
//
//	p'(u) = (1−α) Σ_{v∈Nin(u)} p'(v)/|Nout(v)|
//	p(u)[i] = p'(u)[i]/|Si|
//
// and after placing u into shard s, p'(u)[s] += α. The computation is
// O(|Nin(u)|·k) worst case and O(k) on the scale-free TaN network.
//
// Storage: vectors are immutable once committed, so they all live in one
// growable slab arena addressed by per-node (offset, length) spans. The
// arena is struct-of-arrays — a shard column and a Q32.32 value column —
// so the merge inner loop streams two dense homogeneous arrays instead of
// 16-byte interleaved pairs, and score mass is fixed point (see fixed.go)
// so accumulation is exact and the per-entry divide is a reciprocal
// multiply. Steady state, Prepare and Commit allocate nothing — the slab
// doubles amortized as the stream grows, and Reserve can pre-size it so
// even that growth never happens on the hot path.
type T2SIndex struct {
	alpha    float64
	alphaQ   uint64  // α restart mass in Q32.32
	scaleQ   uint64  // 1−α in Q32.32 (exact complement of alphaQ)
	truncate float64 // relative threshold; entries below truncate·max are dropped (0 = exact)
	truncQ   uint64  // truncate in Q32.32
	asn      *placement.Assignment

	// normalize selects whether Prepare divides p'(u)[i] by |Si| (the
	// paper's formula). Exposed for the normalization ablation.
	normalize bool

	// outCounts, when non-nil, supplies |Nout(v)| as the number of outputs
	// transaction v created — the UTXO-model reading of "output
	// transactions of v": each output is spent exactly once, so the
	// eventual TaN out-degree of v equals its output count (less the
	// never-spent tail). This is known the moment v arrives, and it
	// immediately discounts wide fan-out transactions (batch payouts)
	// whose thousands of recipients should not all follow the payer's
	// shard. When nil, the divisor is the number of distinct spenders seen
	// so far (including the one being scored).
	outCounts func(txgraph.Node) int

	slabShards []int32  // arena shard column backing every committed p'(v)
	slabVals   []uint64 // arena Q32.32 value column, same indexing
	spans      []vecSpan
	outDeg     []int32

	tally t2sTally
}

// NewT2SIndex creates an index over the given assignment with damping
// factor alpha (paper: 0.5) and relative truncation threshold truncate
// (0 keeps vectors exact; ~1e-4 keeps them small with no measurable effect
// on decisions).
func NewT2SIndex(alpha, truncate float64, asn *placement.Assignment, n int) *T2SIndex {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if truncate < 0 {
		truncate = 0
	}
	if n < 0 {
		n = 0
	}
	alphaQ := qFromFloat(alpha)
	t := &T2SIndex{
		alpha:      alpha,
		alphaQ:     alphaQ,
		scaleQ:     qOne - alphaQ,
		truncate:   truncate,
		truncQ:     qFromFloat(truncate),
		asn:        asn,
		normalize:  true,
		slabShards: make([]int32, 0, n),
		slabVals:   make([]uint64, 0, n),
		spans:      make([]vecSpan, 0, n),
		outDeg:     make([]int32, 0, n),
	}
	t.tally.init(asn.K())
	return t
}

// SetNormalize toggles the 1/|Si| score normalization (default on).
func (t *T2SIndex) SetNormalize(on bool) { t.normalize = on }

// SetOutCounts installs an output-count source used as the |Nout(v)|
// divisor (see the outCounts field). Passing nil restores the
// spenders-so-far divisor.
func (t *T2SIndex) SetOutCounts(fn func(txgraph.Node) int) { t.outCounts = fn }

// Alpha returns the damping factor.
func (t *T2SIndex) Alpha() float64 { return t.alpha }

// Reserve pre-sizes the arena for at least `nodes` more transactions whose
// committed vectors total at most `entries` more slab entries, so the
// following Prepare/Commit calls allocate nothing at all. It is optional —
// without it the arena doubles amortized — and exists for callers that need
// a hard zero-allocation guarantee (latency-critical loops, allocation
// budget tests).
func (t *T2SIndex) Reserve(nodes, entries int) {
	// spans and outDeg grow in lockstep but their capacities diverge under
	// append (different element sizes land in different size classes), so
	// each slice checks its own headroom.
	if need := len(t.spans) + nodes; need > cap(t.spans) {
		spans := make([]vecSpan, len(t.spans), need)
		copy(spans, t.spans)
		t.spans = spans
	}
	if need := len(t.outDeg) + nodes; need > cap(t.outDeg) {
		deg := make([]int32, len(t.outDeg), need)
		copy(deg, t.outDeg)
		t.outDeg = deg
	}
	if need := len(t.slabShards) + entries; need > cap(t.slabShards) {
		shards := make([]int32, len(t.slabShards), need)
		copy(shards, t.slabShards)
		t.slabShards = shards
	}
	if need := len(t.slabVals) + entries; need > cap(t.slabVals) {
		vals := make([]uint64, len(t.slabVals), need)
		copy(vals, t.slabVals)
		t.slabVals = vals
	}
}

// vec returns the committed p'(v) columns (views into the slab; read-only).
func (t *T2SIndex) vec(v txgraph.Node) ([]int32, []uint64) {
	sp := t.spans[v]
	end := sp.off + int(sp.n)
	return t.slabShards[sp.off:end], t.slabVals[sp.off:end]
}

// growSlab ensures room for need more entries, doubling so headroom after a
// growth is proportional to the arena (keeps growth allocations amortized
// O(1/len) per commit).
func (t *T2SIndex) growSlab(need int) {
	want := len(t.slabShards) + need
	if want > cap(t.slabShards) {
		newCap := 2 * cap(t.slabShards)
		if newCap < want {
			newCap = want
		}
		if newCap < 64 {
			newCap = 64
		}
		shards := make([]int32, len(t.slabShards), newCap)
		copy(shards, t.slabShards)
		t.slabShards = shards
	}
	if want > cap(t.slabVals) {
		newCap := 2 * cap(t.slabVals)
		if newCap < want {
			newCap = want
		}
		if newCap < 64 {
			newCap = 64
		}
		vals := make([]uint64, len(t.slabVals), newCap)
		copy(vals, t.slabVals)
		t.slabVals = vals
	}
}

// divisor returns |Nout(v)| for one input: the configured output count when
// available, otherwise the online spenders-so-far estimate deg.
func (t *T2SIndex) divisor(v txgraph.Node, deg int32) int64 {
	div := int64(deg)
	if t.outCounts != nil {
		if c := t.outCounts(v); c > 0 {
			div = int64(c)
		}
	}
	return div
}

// Prepare computes p'(u) for the next transaction u and returns the dense
// normalized score vector p(u) (valid until the next Prepare call). It also
// advances the out-degree of each input to include u, matching the online
// random-walk interpretation. Prepare must be followed by exactly one
// Commit for the same node.
//
//optchain:hotpath the T2S score maintenance loop (§IV-B).
func (t *T2SIndex) Prepare(u txgraph.Node, inputs []txgraph.Node) []float64 {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: Prepare(%d) before Commit(%d)", u, t.tally.pendingNode))
	}
	if int(u) != len(t.spans) {
		panic(fmt.Sprintf("core: out-of-order Prepare(%d), expected %d", u, len(t.spans)))
	}

	// Accumulate (1−α) Σ p'(v)/|Nout(v)| into the dense merge buffer,
	// tracking which shards were touched.
	for _, v := range inputs {
		t.outDeg[v]++ // u is now a spender of v
		shards, vals := t.vec(v)
		t.tally.accumulate(shards, vals, t.divisor(v, t.outDeg[v]))
	}
	t.tally.finish(u, t.scaleQ)
	return t.tally.dense(t.asn.CountsView(), t.normalize)
}

// Commit finalizes the placement of the prepared node into shard s: it adds
// the α restart mass at s, truncates, and appends p'(u) to the slab arena.
// The caller is responsible for also recording the decision in the
// Assignment (the placers in this package do both).
//
//optchain:hotpath one call per stream transaction; slab growth is amortized.
func (t *T2SIndex) Commit(u txgraph.Node, shard int) {
	if !t.tally.hasPending || t.tally.pendingNode != u {
		panic(fmt.Sprintf("core: Commit(%d) without matching Prepare", u))
	}
	t.growSlab(len(t.tally.pendS) + 1)
	off := len(t.slabShards)
	t.slabShards, t.slabVals = appendVector(
		t.slabShards, t.slabVals, t.tally.pendS, t.tally.pendV,
		int32(shard), t.alphaQ, t.truncQ)
	t.spans = append(t.spans, vecSpan{off: off, n: int32(len(t.slabShards) - off)})
	t.outDeg = append(t.outDeg, 0)
	t.tally.hasPending = false
}

// Vector returns a copy of p'(v) for inspection, converted to float64.
func (t *T2SIndex) Vector(v txgraph.Node) map[int]float64 {
	shards, vals := t.vec(v)
	out := make(map[int]float64, len(shards))
	for i, s := range shards {
		out[int(s)] = qToFloat(vals[i])
	}
	return out
}

// OutDegree returns the current online out-degree of v.
func (t *T2SIndex) OutDegree(v txgraph.Node) int { return int(t.outDeg[v]) }

// SlabLen reports how many sparse entries the arena currently holds
// (diagnostics, memory accounting).
func (t *T2SIndex) SlabLen() int { return len(t.slabShards) }

// sortShards is an allocation-free insertion sort for the small touched-
// shard lists Prepare produces.
func sortShards(a []int32) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
