package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"time"

	"optchain"
)

// Library phase: Engine.PlaceWorkload over the bitcoin scenario, then one
// WriteSnapshot and several ReadSnapshot restores into fresh engines.

const (
	placeWorkload  = "bitcoin"
	placeStrategy  = "OptChain"
	restoreRepeats = 5
	checkChunk     = 4096
)

// placeSeedStats is what one stream seed yields exactly; repeats of the
// seed must reproduce it.
type placeSeedStats struct {
	cross, heapPerTx float64
	snapBytes        int
	digest           uint64
	proc             procStats
}

type placeStats struct {
	txs       int
	correct   bool
	attempted int64
	failed    int64

	seeds    []placeSeedStats // indexed by sub-seed
	tps      []float64        // per iteration, per CPU second
	restores []float64        // CPU seconds per ReadSnapshot
	writes   []float64        // CPU seconds per WriteSnapshot

	// traced run only
	trace placeTrace
}

type placeTrace struct {
	genNs, placeNs, admitNs float64 // per tx
	inputsPerTx, dedupRatio float64
	overhead                float64
}

func newPlaceEngine(seed int64, workload, strategy string) (*optchain.Engine, error) {
	return optchain.New(
		optchain.WithShards(shards),
		optchain.WithStrategy(strategy),
		optchain.WithWorkload(workload, nil),
		optchain.WithSeed(seed),
	)
}

// runPlace cycles the library iteration over the run's sub-seeds until
// budget is spent, covering each sub-seed at least once; a traced run then
// adds one traced iteration.
func runPlace(seed int64, txs int, budget time.Duration, trace bool) (*placeStats, error) {
	ps := &placeStats{txs: txs, correct: true}
	start := time.Now()
	for i := 0; i < subSeeds || time.Since(start) < budget; i++ {
		if err := ps.iterate(subSeed(seed, i), i%subSeeds); err != nil {
			return nil, err
		}
	}
	if trace {
		if err := ps.traced(subSeed(seed, 0)); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// iterate places one stream, measures it, snapshots it, restores the
// snapshot restoreRepeats times, and checks that every restored engine
// continues the stream exactly as the original does.
func (ps *placeStats) iterate(seed int64, sub int) error {
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, err := newPlaceEngine(seed, placeWorkload, placeStrategy)
	if err != nil {
		return err
	}
	c0 := cpuTime()
	st, err := eng.PlaceWorkload(ps.txs)
	cpu := cpuTime() - c0
	ps.attempted += int64(ps.txs)
	if err != nil {
		return fmt.Errorf("PlaceWorkload: %w", err)
	}
	if st.Placed != ps.txs {
		return fmt.Errorf("placed %d of %d", st.Placed, ps.txs)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	ps.tps = append(ps.tps, float64(ps.txs)/cpu.Seconds())

	var snap bytes.Buffer
	c0 = cpuTime()
	if err := eng.WriteSnapshot(&snap); err != nil {
		return fmt.Errorf("WriteSnapshot: %w", err)
	}
	ps.writes = append(ps.writes, (cpuTime() - c0).Seconds())

	got := placeSeedStats{
		cross:     st.CrossFraction,
		heapPerTx: float64(int64(m2.HeapAlloc)-int64(m0.HeapAlloc)) / float64(ps.txs),
		snapBytes: snap.Len(),
		digest:    assignmentDigest(eng.Assignment(), ps.txs),
		proc: procStats{
			allocPerTx: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ps.txs),
			gcCycles:   float64(m1.NumGC - m0.NumGC),
		},
	}
	if sub == len(ps.seeds) {
		ps.seeds = append(ps.seeds, got)
	} else if want := ps.seeds[sub]; got.digest != want.digest || got.cross != want.cross || got.snapBytes != want.snapBytes {
		ps.correct = false
		fmt.Fprintf(os.Stderr, "place: seed %d repeated with different decisions or snapshot size\n", seed)
	}

	chunk := continuation(seed, ps.txs)
	want, err := eng.PlaceBatch(chunk, nil)
	if err != nil {
		return fmt.Errorf("continuation on the original: %w", err)
	}
	// The original is dead from here on, so the restores below do not
	// share the heap with it.
	for r := 0; r < restoreRepeats; r++ {
		re, err := newPlaceEngine(seed, placeWorkload, placeStrategy)
		if err != nil {
			return err
		}
		runtime.GC()
		c0 = cpuTime()
		if err := re.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			return fmt.Errorf("ReadSnapshot: %w", err)
		}
		ps.restores = append(ps.restores, (cpuTime() - c0).Seconds())
		got, err := re.PlaceBatch(chunk, nil)
		ps.attempted += int64(len(chunk))
		if err != nil {
			return fmt.Errorf("continuation on a restored engine: %w", err)
		}
		for j := range want {
			if got[j] != want[j] {
				ps.correct = false
				ps.failed++
				fmt.Fprintf(os.Stderr, "place: restored engine placed tx %d on shard %d, original on %d\n", ps.txs+j, got[j], want[j])
				break
			}
		}
	}
	return nil
}

// continuation is a deterministic chunk of transactions that spend outputs
// from anywhere in the already placed stream, so placing it exercises the
// whole restored decision state.
func continuation(seed int64, base int) []optchain.StreamTx {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]optchain.StreamTx, checkChunk)
	for i := range txs {
		ins := make([]int, 1+rng.Intn(3))
		for j := range ins {
			ins[j] = rng.Intn(base + i)
		}
		txs[i] = optchain.StreamTx{Inputs: ins, Outputs: 1 + rng.Intn(3)}
	}
	return txs
}

// assignmentDigest hashes the first n placement decisions.
func assignmentDigest(a *optchain.Assignment, n int) uint64 {
	h := fnv.New64a()
	var b [1]byte
	for v := 0; v < n; v++ {
		b[0] = byte(a.ShardOf(optchain.Node(v)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// traced places the first sub-seed's stream again through the timing
// wrappers and checks that the decisions match the untraced run's. Spans
// are wall time; the overhead compares the traced iteration's CPU time
// with the untraced median.
func (ps *placeStats) traced(seed int64) error {
	eng, err := newPlaceEngine(seed, tracedWorkload, tracedStrategy)
	if err != nil {
		return err
	}
	tr.reset()
	c0, t0 := cpuTime(), time.Now()
	st, err := eng.PlaceWorkload(ps.txs)
	wall, cpu := time.Since(t0), cpuTime()-c0
	ps.attempted += int64(ps.txs)
	if err != nil {
		return fmt.Errorf("traced PlaceWorkload: %w", err)
	}
	want := ps.seeds[0]
	if got := assignmentDigest(eng.Assignment(), ps.txs); got != want.digest || st.CrossFraction != want.cross {
		ps.correct = false
		fmt.Fprintf(os.Stderr, "place: traced decisions differ from untraced (digest %x vs %x)\n", got, want.digest)
	}
	n := float64(ps.txs)
	ps.trace = placeTrace{
		genNs:       float64(tr.genTime.Nanoseconds()) / n,
		placeNs:     float64(tr.placeTime.Nanoseconds()) / n,
		admitNs:     float64((wall - tr.genTime - tr.placeTime).Nanoseconds()) / n,
		inputsPerTx: float64(tr.rawRefs) / n,
		dedupRatio:  float64(tr.uniqueRefs) / float64(tr.rawRefs),
		overhead:    median(ps.tps)/(n/cpu.Seconds()) - 1,
	}
	return nil
}

func seedSnapBytes(s placeSeedStats) float64 { return float64(s.snapBytes) }

// procCost is the runtime cost of one PlaceWorkload, averaged over the
// sub-seeds.
func (ps *placeStats) procCost() procStats {
	return procStats{
		allocPerTx: mean(ps.seeds, func(s placeSeedStats) float64 { return s.proc.allocPerTx }),
		gcCycles:   mean(ps.seeds, func(s placeSeedStats) float64 { return s.proc.gcCycles }),
	}
}

func (ps *placeStats) endToEnd(m map[string]metric) {
	m["place_tps"] = metric{median(ps.tps), "tx/s"}
	m["cross_fraction"] = metric{mean(ps.seeds, func(s placeSeedStats) float64 { return s.cross }), "frac"}
	m["heap_bytes_per_tx"] = metric{mean(ps.seeds, func(s placeSeedStats) float64 { return s.heapPerTx }), "B/tx"}
	m["snapshot_bytes_per_tx"] = metric{mean(ps.seeds, seedSnapBytes) / float64(ps.txs), "B/tx"}
	m["restore_s"] = metric{median(ps.restores), "s"}
}

func (ps *placeStats) layerMetrics(m map[string]metric) {
	mb := mean(ps.seeds, seedSnapBytes) / 1e6
	m["workload.gen_ns_per_tx"] = metric{ps.trace.genNs, "ns"}
	m["workload.inputs_per_tx"] = metric{ps.trace.inputsPerTx, "count"}
	m["engine.admit_ns_per_tx"] = metric{ps.trace.admitNs, "ns"}
	m["engine.dedup_ratio"] = metric{ps.trace.dedupRatio, "ratio"}
	m["placement.place_ns_per_tx"] = metric{ps.trace.placeNs, "ns"}
	m["snapshot.write_mb_per_s"] = metric{mb / median(ps.writes), "MB/s"}
	m["snapshot.read_mb_per_s"] = metric{mb / median(ps.restores), "MB/s"}
	m["trace.place_overhead_frac"] = metric{ps.trace.overhead, "ratio"}
}
