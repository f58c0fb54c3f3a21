package workload

import (
	"bytes"
	"errors"
	"testing"
)

// encodeStream materializes n transactions of a spec and returns the
// canonical encoding — byte equality means stream equality.
func encodeStream(t *testing.T, spec string, p Params, n int) []byte {
	t.Helper()
	src, err := New(spec, p)
	if err != nil {
		t.Fatalf("New(%q): %v", spec, err)
	}
	d, err := Materialize(src, n)
	if err != nil {
		t.Fatalf("%s: Materialize: %v", spec, err)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMixDeterminismUnderReseeding: one seed fully determines a mix
// (components, interleaving, burst phases); changing it changes the stream.
func TestMixDeterminismUnderReseeding(t *testing.T) {
	const spec = "mix:bitcoin=0.5,(hotspot:exp=1.4)=0.3,adversarial=0.2"
	const n = 3000
	a := encodeStream(t, spec, Params{N: n, Seed: 9, Shards: 8}, n)
	b := encodeStream(t, spec, Params{N: n, Seed: 9, Shards: 8}, n)
	if !bytes.Equal(a, b) {
		t.Fatal("equal seeds produced different mix streams")
	}
	c := encodeStream(t, spec, Params{N: n, Seed: 10, Shards: 8}, n)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical mix streams")
	}
}

// TestMixSingleComponentEqualsPlain: a single-component mix is
// stream-identical to the plain source with the same seed.
func TestMixSingleComponentEqualsPlain(t *testing.T) {
	const n = 2500
	p := Params{N: n, Seed: 4, Shards: 8}
	mixed := encodeStream(t, "mix:hotspot=1", p, n)
	plain := encodeStream(t, "hotspot", p, n)
	if !bytes.Equal(mixed, plain) {
		t.Fatal("mix:hotspot=1 diverges from plain hotspot")
	}
}

// TestMixZeroWeightExcluded: a zero-weight component is never built or
// drawn — the stream equals the mix without it, wherever it appears.
func TestMixZeroWeightExcluded(t *testing.T) {
	const n = 2500
	p := Params{N: n, Seed: 6, Shards: 8}
	want := encodeStream(t, "mix:bitcoin=1", p, n)
	for _, spec := range []string{"mix:bitcoin=1,hotspot=0", "mix:hotspot=0,bitcoin=1"} {
		if got := encodeStream(t, spec, p, n); !bytes.Equal(got, want) {
			t.Fatalf("%s diverges from mix:bitcoin=1", spec)
		}
	}
	if got := encodeStream(t, "hotspot", p, n); bytes.Equal(got, want) {
		t.Fatal("sanity: bitcoin-only mix should differ from hotspot")
	}
}

// TestMixRecursive: a mix of a mix parses and streams.
func TestMixRecursive(t *testing.T) {
	const n = 1200
	src := build(t, "mix:(mix:bitcoin=0.5,hotspot=0.5)=0.7,drift=0.3", Params{N: n, Seed: 3, Shards: 8})
	if got := len(drain(t, src, n)); got != n {
		t.Fatalf("drained %d of %d", got, n)
	}
}

// TestMixWeightValidation: negative weights, all-zero weights, positional
// components, and non-numeric weights are rejected.
func TestMixWeightValidation(t *testing.T) {
	for _, spec := range []string{
		"mix:bitcoin=-1,hotspot=2",
		"mix:bitcoin=0,hotspot=0",
		"mix:bitcoin",
		"mix:bitcoin=x",
	} {
		if _, err := New(spec, Params{N: 10}); !errors.Is(err, ErrBadParam) {
			t.Errorf("New(%q) error = %v, want ErrBadParam", spec, err)
		}
	}
}

// TestMixDefaultComposition: bare "mix" streams the documented default
// multi-region composition.
func TestMixDefaultComposition(t *testing.T) {
	const n = 1500
	src := build(t, "mix", Params{N: n, Seed: 1, Shards: 8})
	if got := len(drain(t, src, n)); got != n {
		t.Fatalf("drained %d of %d", got, n)
	}
}

// TestMixObserverRoutesToComponents: placement feedback reaches an
// adversarial component at its local stream positions, preserving its
// shard-spanning behavior inside a mix.
func TestMixObserverRoutesToComponents(t *testing.T) {
	const n, k = 6000, 8
	src := build(t, "mix:adversarial=1", Params{N: n, Seed: 2, Shards: k})
	obs, ok := src.(Observer)
	if !ok {
		t.Fatal("mix does not implement Observer")
	}
	shardOf := make([]int, 0, n)
	var tx Tx
	spanning, spends := 0, 0
	for i := 0; src.Next(&tx); i++ {
		s := i % k
		if len(tx.Inputs) > 0 {
			s = shardOf[tx.Inputs[0].Tx]
		}
		shardOf = append(shardOf, s)
		obs.Observe(i, s)
		if len(tx.Inputs) > 0 {
			spends++
			distinct := map[int]bool{}
			for _, in := range tx.Inputs {
				distinct[shardOf[in.Tx]] = true
			}
			if len(distinct) >= 2 {
				spanning++
			}
		}
	}
	if spends == 0 {
		t.Fatal("no spending transactions emitted")
	}
	if frac := float64(spanning) / float64(spends); frac < 0.9 {
		t.Fatalf("only %.2f of adversarial-in-mix spends span >= 2 shards", frac)
	}
}

// TestMixStaggerAlignsSeeds: stagger=0 derives every component seed
// identically, so two equal-weight copies of the same scenario emit
// identical sub-streams; the default staggering makes them diverge. The
// copies spell their knobs in different orders because a mix may not
// repeat a component key.
func TestMixStaggerAlignsSeeds(t *testing.T) {
	const n = 2000
	pull := func(spec string) []Tx {
		return drain(t, build(t, spec, Params{N: n, Seed: 5, Shards: 8}), n)
	}
	aligned := pull("mix:(burst:onmean=100,offmean=300)=0.5,(burst:offmean=300,onmean=100)=0.5,stagger=0")
	staggered := pull("mix:(burst:onmean=100,offmean=300)=0.5,(burst:offmean=300,onmean=100)=0.5")
	gapsDiffer := func(txs []Tx) bool {
		// With aligned seeds both components share one phase schedule, so a
		// fast (ON) transaction and a slow (OFF) transaction can never be
		// adjacent draws from different components at the same local index.
		// The cheap distinguishable signal: count boosted gaps.
		fast := 0
		for _, tx := range txs {
			if tx.Gap < 1 {
				fast++
			}
		}
		return fast > 0
	}
	if !gapsDiffer(aligned) || !gapsDiffer(staggered) {
		t.Fatal("burst components emitted no boosted gaps")
	}
	// The two compositions must themselves differ: staggering changes the
	// component streams.
	same := len(aligned) == len(staggered)
	if same {
		for i := range aligned {
			if aligned[i].Outputs != staggered[i].Outputs || aligned[i].Gap != staggered[i].Gap ||
				len(aligned[i].Inputs) != len(staggered[i].Inputs) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("stagger=0 and default staggering produced identical mixes")
	}
}

// TestMixFractionalStaggerSeparatesSeeds: stagger=0.5 must still give
// adjacent components distinct seeds (truncating per-component would
// collapse components 0 and 1 onto one seed).
func TestMixFractionalStaggerSeparatesSeeds(t *testing.T) {
	const n = 2000
	p := Params{N: n, Seed: 5, Shards: 8}
	src := build(t, "mix:(hotspot:exp=1.2,wallets=5000)=0.5,(hotspot:wallets=5000,exp=1.2)=0.5,stagger=0.5", p)
	obsrv, _ := src.(*mixSource)
	if len(obsrv.comps) != 2 {
		t.Fatalf("built %d components", len(obsrv.comps))
	}
	a := drain(t, obsrv.comps[0].src, 200)
	b := drain(t, obsrv.comps[1].src, 200)
	same := true
	for i := range a {
		if a[i].Outputs != b[i].Outputs || len(a[i].Inputs) != len(b[i].Inputs) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stagger=0.5 gave adjacent components identical streams")
	}
}

// TestMixCompWindowTranslation: the per-component ring window must
// translate every in-window local position exactly, refuse evicted ones,
// and never hold more than 2x window entries — compaction is invisible to
// correct lookups.
func TestMixCompWindowTranslation(t *testing.T) {
	c := &mixComp{}
	const window = 8
	for local := 0; local < 100; local++ {
		c.push(int32(local*10), window)
		if len(c.toGlobal) > 2*window {
			t.Fatalf("after %d pushes the window holds %d entries", local+1, len(c.toGlobal))
		}
		for l := c.base; l <= local; l++ {
			g, ok := c.global(l)
			if !ok || g != int32(l*10) {
				t.Fatalf("global(%d) = %d,%v, want %d,true", l, g, ok, l*10)
			}
		}
		if _, ok := c.global(c.base - 1); c.base > 0 && ok {
			t.Fatal("evicted position still resolves")
		}
	}
	if c.base == 0 {
		t.Fatal("window never compacted; the test exercises nothing")
	}
}

// TestMixWindowKnobPreservesStream: an explicit window that nothing evicts
// from must be byte-identical to the default — the knob changes memory
// bounds, never decisions.
func TestMixWindowKnobPreservesStream(t *testing.T) {
	const n = 3000
	p := Params{N: n, Seed: 11, Shards: 8}
	def := encodeStream(t, "mix:bitcoin=0.6,hotspot=0.4", p, n)
	windowed := encodeStream(t, "mix:bitcoin=0.6,hotspot=0.4,window=4000", p, n)
	if !bytes.Equal(def, windowed) {
		t.Fatal("the window knob changed the mix stream")
	}
}

// TestMixWindowOverflow: a window smaller than a component's spend distance
// must fail the stream with ErrWindowExceeded instead of mistranslating
// input references.
func TestMixWindowOverflow(t *testing.T) {
	src, err := New("mix", Params{N: 3000, Seed: 11, Shards: 8,
		Knobs: map[string]float64{"bitcoin": 1, "window": 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = Materialize(src, 3000)
	if err == nil {
		t.Fatal("window=1 materialized a full bitcoin mix without overflowing")
	}
	if !errors.Is(err, ErrWindowExceeded) {
		t.Fatalf("overflow error = %v, want ErrWindowExceeded", err)
	}
}

// TestMixWindowValidation: the window knob must be a positive integer.
func TestMixWindowValidation(t *testing.T) {
	for _, w := range []float64{0, -1, 0.5, 1 << 31} {
		_, err := New("mix", Params{N: 10, Seed: 1, Shards: 4,
			Knobs: map[string]float64{"bitcoin": 1, "window": w}})
		if !errors.Is(err, ErrBadParam) {
			t.Errorf("window=%v: err = %v, want ErrBadParam", w, err)
		}
	}
}

// TestMixObserveOutsideWindow: feedback for positions already evicted from
// the translation window (or never emitted) is dropped, not crashed on.
func TestMixObserveOutsideWindow(t *testing.T) {
	const n = 600
	src := build(t, "mix:adversarial=1,window=64", Params{N: n, Seed: 3, Shards: 8})
	m := src.(*mixSource)
	var tx Tx
	for i := 0; i < n && src.Next(&tx); i++ {
		m.Observe(i, i%8) // live feedback: always inside the window
	}
	if err := sourceErr(src); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if m.gbase == 0 {
		t.Fatal("window never compacted; the test exercises nothing")
	}
	m.Observe(0, 1)     // evicted long ago
	m.Observe(-1, 1)    // never valid
	m.Observe(1<<30, 1) // far future
}
