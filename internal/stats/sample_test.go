package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestAgeDrawMatchesPow: AgeDraw.Pow is math.Pow bit for bit over the whole
// domain the generators use. A toolchain whose math.Pow takes another path
// fails here before it silently changes every generated stream.
func TestAgeDrawMatchesPow(t *testing.T) {
	var a AgeDraw
	rng := rand.New(rand.NewSource(1))
	mismatches := 0
	check := func(n int, u float64) {
		got, want := a.Pow(n, u), math.Pow(float64(n), u)
		if math.Float64bits(got) != math.Float64bits(want) {
			if mismatches < 10 {
				t.Errorf("Pow(%d, %v) = %v, math.Pow = %v", n, u, got, want)
			}
			mismatches++
		}
	}
	edges := []float64{0, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0)}
	for n := 1; n <= 1<<16; n++ {
		for _, u := range edges {
			check(n, u)
		}
		for k := 0; k < 64; k++ {
			check(n, rng.Float64())
		}
	}
	for k := 0; k < 1_000_000; k++ {
		check(1+rng.Intn(1<<22), rng.Float64())
	}
	if mismatches > 0 {
		t.Fatalf("%d mismatches against math.Pow", mismatches)
	}
}

func BenchmarkAgeDraw(b *testing.B) {
	var a AgeDraw
	rng := rand.New(rand.NewSource(1))
	ns, us := make([]int, 1024), make([]float64, 1024)
	for i := range ns {
		ns[i], us[i] = 1+rng.Intn(1<<16), rng.Float64()
	}
	b.Run("AgeDraw", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += a.Pow(ns[i&1023], us[i&1023])
		}
		_ = sink
	})
	b.Run("math.Pow", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += math.Pow(float64(ns[i&1023]), us[i&1023])
		}
		_ = sink
	})
}
