package stats

import (
	"math"
	"math/rand"
)

// Zipf-like discrete power-law sampler over {1, 2, ...}: P(X = x) ∝ x^(-s).
// Used by the dataset generator to reproduce the TaN network's power-law
// degree distribution (paper Fig. 2a).
type PowerLaw struct {
	s   float64
	max int
	cdf []float64
}

// NewPowerLaw builds a sampler with exponent s (>1 recommended) truncated at
// max (inclusive).
func NewPowerLaw(s float64, max int) *PowerLaw {
	if max < 1 {
		max = 1
	}
	p := &PowerLaw{s: s, max: max, cdf: make([]float64, max)}
	var total float64
	for x := 1; x <= max; x++ {
		total += math.Pow(float64(x), -s)
		p.cdf[x-1] = total
	}
	for i := range p.cdf {
		p.cdf[i] /= total
	}
	return p
}

// Sample draws a value in [1, max].
func (p *PowerLaw) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, p.max-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Mean returns the expected value of the truncated distribution.
func (p *PowerLaw) Mean() float64 {
	var mean, total float64
	for x := 1; x <= p.max; x++ {
		w := math.Pow(float64(x), -p.s)
		mean += float64(x) * w
		total += w
	}
	return mean / total
}

// ExpSample draws an exponential variate with the given rate.
func ExpSample(rng *rand.Rand, lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	return rng.ExpFloat64() / lambda
}

// AgeDraw evaluates the log-uniform age draw n^u (P(age) ∝ 1/age) of the
// recency-biased input selectors. It returns exactly math.Pow(float64(n),
// u), bit for bit, but reads log n from a lazily grown table instead of
// calling math.Log. The zero value is ready to use; an AgeDraw is not safe
// for concurrent use.
type AgeDraw struct {
	logs []float64 // logs[i] == math.Log(float64(i))
}

// Pow returns math.Pow(float64(n), u) for n >= 1 and u in [0, 1). It follows
// math.Pow's own evaluation path for that domain: 1 for u == 0 or n == 1,
// Sqrt at u == 0.5, and otherwise Exp of the fractional exponent times log n,
// where Pow rebases exponents above one half to u-1 and multiplies n back in
// (its Frexp/Ldexp power-of-two scaling is exact in this range).
//
//optchain:hotpath one call per recency-biased input draw.
func (a *AgeDraw) Pow(n int, u float64) float64 {
	if u == 0 || n == 1 {
		return 1
	}
	x := float64(n)
	if u == 0.5 {
		return math.Sqrt(x)
	}
	for len(a.logs) <= n {
		a.logs = append(a.logs, math.Log(float64(len(a.logs))))
	}
	if u > 0.5 {
		return math.Exp((u-1)*a.logs[n]) * x
	}
	return math.Exp(u * a.logs[n])
}
