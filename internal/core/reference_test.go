package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"optchain/internal/dataset"
	"optchain/internal/txgraph"
)

// referenceAlg1 is a plain float64 reading of the paper's placement rule,
// written independently of the kernel (no slab, no fixed point, no fused
// scans) to pin what the optimized placers must decide:
//
//	p'(u)    = (1−α) Σ_{v∈Nin(u)} p'(v)/|Nout(v)|       T2S, §IV-B
//	p(u)[i]  = p'(u)[i]/|Si|  (or p'(u)[i] unnormalized)
//	E(j)     = max_{i∈Sin} m(i) + m(j),  m(i) = 1/λc_i + 1/λv_i   L2S, §IV-C
//
// then p'(u)[s] += α on placement, and entries below truncate·max(p'(u))
// are dropped. |Nout(v)| is v's output count when known, else the number
// of spenders seen so far including u. Dense k-vectors, one per
// transaction.
type referenceAlg1 struct {
	k         int
	alpha     float64
	truncate  float64
	normalize bool
	outCounts func(txgraph.Node) int

	vecs    [][]float64
	spent   []int
	counts  []int64
	pending []float64
}

func newReferenceAlg1(k int, alpha, truncate float64, normalize bool, outCounts func(txgraph.Node) int) *referenceAlg1 {
	return &referenceAlg1{
		k: k, alpha: alpha, truncate: truncate, normalize: normalize,
		outCounts: outCounts, counts: make([]int64, k),
	}
}

// scores computes p'(u) for the next transaction, holds it until commit,
// and returns p(u).
func (r *referenceAlg1) scores(inputs []txgraph.Node) []float64 {
	p := make([]float64, r.k)
	for _, v := range inputs {
		r.spent[v]++
		div := float64(r.spent[v])
		if r.outCounts != nil {
			if c := r.outCounts(v); c > 0 {
				div = float64(c)
			}
		}
		for i := range p {
			p[i] += r.vecs[v][i] / div
		}
	}
	for i := range p {
		p[i] *= 1 - r.alpha
	}
	r.pending = p
	out := make([]float64, r.k)
	for i := range out {
		switch {
		case !r.normalize:
			out[i] = p[i]
		case r.counts[i] > 0:
			out[i] = p[i] / float64(r.counts[i])
		}
	}
	return out
}

// commit places the scored transaction into shard s.
func (r *referenceAlg1) commit(s int) {
	p := r.pending
	p[s] += r.alpha
	max := 0.0
	for _, x := range p {
		max = math.Max(max, x)
	}
	for i, x := range p {
		if x < r.truncate*max {
			p[i] = 0
		}
	}
	r.vecs = append(r.vecs, p)
	r.spent = append(r.spent, 0)
	r.counts[s]++
}

// t2sFitness is the T2S-based rule: the score itself, with shards at or
// over the capacity bound excluded (NaN).
func (r *referenceAlg1) t2sFitness(scores []float64, capacity int64) []float64 {
	fit := make([]float64, r.k)
	for j := range fit {
		fit[j] = scores[j]
		if r.counts[j] >= capacity {
			fit[j] = math.NaN()
		}
	}
	return fit
}

// optChainFitness is Alg. 1's Temporal Fitness p(u)[j] − w·E(j).
func (r *referenceAlg1) optChainFitness(scores []float64, inputShards []int, tel Telemetry, w float64) []float64 {
	mean := func(i int) float64 { return 1/tel.CommRate(i) + 1/tel.VerifyRate(i) }
	lock := 0.0
	for _, i := range inputShards {
		lock = math.Max(lock, mean(i))
	}
	fit := make([]float64, r.k)
	for j := range fit {
		fit[j] = scores[j] - w*(lock+mean(j))
	}
	return fit
}

// choose is the argmax over fitness (NaN = ineligible); ties go to the
// least-loaded shard, then the lowest index. With no eligible shard it
// falls back to the least-loaded one.
func (r *referenceAlg1) choose(fit []float64) int {
	best := -1
	for j, f := range fit {
		if math.IsNaN(f) {
			continue
		}
		if best == -1 || f > fit[best] || (f == fit[best] && r.counts[j] < r.counts[best]) {
			best = j
		}
	}
	if best == -1 {
		best = 0
		for j, c := range r.counts {
			if c < r.counts[best] {
				best = j
			}
		}
	}
	return best
}

// loadTelemetry is client-observable telemetry that tracks load: each
// shard's verification rate falls as its tally grows, so the L2S term
// changes transaction by transaction as it does under simulation.
type loadTelemetry struct {
	comm, verify []float64
	counts       []int64
}

func (t *loadTelemetry) CommRate(s int) float64 { return t.comm[s] }
func (t *loadTelemetry) VerifyRate(s int) float64 {
	return t.verify[s] / (1 + float64(t.counts[s])/500)
}

// randomStream is a synthetic DAG: each transaction spends up to three
// recent transactions and creates one to four outputs.
func randomStream(n int, seed int64) (inputs [][]txgraph.Node, outputs []int) {
	rng := rand.New(rand.NewSource(seed))
	inputs = make([][]txgraph.Node, n)
	outputs = make([]int, n)
	for i := range inputs {
		outputs[i] = 1 + rng.Intn(4)
		for j := rng.Intn(4); j > 0 && i > 0; j-- {
			v := txgraph.Node(i - 1 - rng.Intn(min(i, 200)))
			dup := false
			for _, w := range inputs[i] {
				dup = dup || w == v
			}
			if !dup {
				inputs[i] = append(inputs[i], v)
			}
		}
	}
	return inputs, outputs
}

// bitcoinStream materializes the calibrated bitcoin generator's stream.
func bitcoinStream(t *testing.T, n int, seed int64) (inputs [][]txgraph.Node, outputs []int) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = seed
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs = make([][]txgraph.Node, n)
	outputs = make([]int, n)
	for i := range inputs {
		inputs[i] = d.InputTxNodes(i, nil)
		outputs[i] = d.NumOutputs(i)
	}
	return inputs, outputs
}

// disagreements tallies the decisions where the kernel and the reference
// part ways, by cause.
type disagreements struct {
	ties     int // the reference scores both shards exactly equal
	rounding int // within Q32.32 quantization error of each other
}

// TestKernelMatchesFloatReference is the differential oracle for the serial
// placement kernel: random and bitcoin streams replay through the T2S and
// OptChain placers and, side by side, through referenceAlg1. After every
// decision the reference follows the kernel, so each disagreement is judged
// on identical state. A disagreement is acceptable only when the reference
// itself cannot separate the two shards: an exact tie, or fitness values
// closer than the fixed-point quantization error (quantum 2^-32, see
// fixed.go). Anything else fails, and the accepted counts are pinned.
func TestKernelMatchesFloatReference(t *testing.T) {
	const k, n = 16, 20000
	const roundingTol = 1e-6
	randIn, randOut := randomStream(n, 11)
	btcIn, btcOut := bitcoinStream(t, n, 3)
	streams := []struct {
		name    string
		inputs  [][]txgraph.Node
		outputs []int
	}{{"random", randIn, randOut}, {"bitcoin", btcIn, btcOut}}
	// Accepted disagreements per stream×strategy, pinned: a change means
	// the kernel's arithmetic moved and must be re-derived, not waved on.
	want := map[string]disagreements{
		"random/T2S":       {ties: 5},
		"random/OptChain":  {},
		"bitcoin/T2S":      {},
		"bitcoin/OptChain": {},
	}

	for _, st := range streams {
		outCounts := func(v txgraph.Node) int { return st.outputs[v] }
		for _, strategy := range []string{"T2S", "OptChain"} {
			name := st.name + "/" + strategy
			t.Run(name, func(t *testing.T) {
				tel := &loadTelemetry{
					comm:   []float64{9, 10, 11, 12, 9, 10, 11, 12, 9, 10, 11, 12, 9, 10, 11, 12},
					verify: []float64{0.5, 0.8, 1, 1.2, 0.6, 0.9, 1.1, 1.3, 0.7, 1, 1.2, 1.4, 0.5, 0.8, 1, 1.2},
					counts: make([]int64, k),
				}
				var kernel interface {
					Place(txgraph.Node, []txgraph.Node) int
				}
				var ref *referenceAlg1
				// The T2S stream-length hint is half the stream, so the
				// capacity bound binds and every shard ends up saturated:
				// both the bounded argmax and its least-loaded fallback run.
				const hint = n / 2
				capacity := int64(math.Floor(float64(hint) / float64(k) * (1 + DefaultCapacityEps)))
				switch strategy {
				case "T2S":
					p := NewT2SPlacer(k, hint, DefaultAlpha, DefaultCapacityEps)
					p.Scores().SetOutCounts(outCounts)
					kernel = p
					ref = newReferenceAlg1(k, DefaultAlpha, DefaultTruncate, true, outCounts)
				case "OptChain":
					p := NewOptChain(OptChainConfig{K: k, N: n, Latency: FastL2S{Tel: tel}})
					p.Scores().SetOutCounts(outCounts)
					kernel = p
					ref = newReferenceAlg1(k, DefaultAlpha, DefaultTruncate, false, outCounts)
				}

				var got disagreements
				var inputShards []int
				decided := make([]int, 0, n)
				for u := 0; u < n; u++ {
					ins := st.inputs[u]
					scores := ref.scores(ins)
					var fit []float64
					if strategy == "T2S" {
						fit = ref.t2sFitness(scores, capacity)
					} else {
						inputShards = inputShards[:0]
						for _, v := range ins {
							inputShards = append(inputShards, decided[v])
						}
						fit = ref.optChainFitness(scores, inputShards, tel, DefaultWeight)
					}
					want := ref.choose(fit)
					s := kernel.Place(txgraph.Node(u), ins)
					if s != want {
						switch gap := fit[want] - fit[s]; {
						case gap == 0:
							got.ties++
						case gap <= roundingTol*(1+math.Abs(fit[want])):
							got.rounding++
						default:
							t.Fatalf("tx %d: kernel chose shard %d (fitness %g), reference %d (fitness %g)",
								u, s, fit[s], want, fit[want])
						}
					}
					ref.commit(s)
					tel.counts[s]++
					decided = append(decided, s)
				}
				t.Logf("%s: %d ties, %d rounding cases in %d decisions", name, got.ties, got.rounding, n)
				if strategy == "T2S" && slices.Min(ref.counts) < capacity {
					t.Fatalf("%s: not every shard reached the capacity bound %d: %v", name, capacity, ref.counts)
				}
				if got != want[name] {
					t.Fatalf("%s: accepted disagreements %+v, pinned %+v", name, got, want[name])
				}
			})
		}
	}
}
