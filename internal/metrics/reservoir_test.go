package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// drawLognormal produces a heavy-tailed sample stream shaped like fleet
// PLT measurements (most sub-second, a long blocked-detection tail).
func drawLognormal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Exp(rng.NormFloat64()*0.8 - 0.5)
	}
	return out
}

// relErr is the relative error of got vs want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestReservoirPercentilesTrackExact is the property test: a bounded
// reservoir's percentile estimates over a large stream must track the
// exact percentiles within a few percent, while holding only `cap`
// samples, and its N/Mean/Min/Max must be exact.
func TestReservoirPercentilesTrackExact(t *testing.T) {
	const (
		n   = 200_000
		cap = 2048
	)
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		vals := drawLognormal(rng, n)
		exact := NewDistribution()
		res := NewReservoir(cap, seed*31)
		for _, v := range vals {
			exact.Add(v)
			res.Add(v)
		}
		if res.N() != n {
			t.Fatalf("seed %d: reservoir N = %d, want %d", seed, res.N(), n)
		}
		if got := res.SampleSize(); got != cap {
			t.Fatalf("seed %d: sample size = %d, want %d", seed, got, cap)
		}
		if res.Mean() != exact.Mean() {
			t.Errorf("seed %d: mean %v != exact %v", seed, res.Mean(), exact.Mean())
		}
		if res.Min() != exact.Min() || res.Max() != exact.Max() {
			t.Errorf("seed %d: min/max (%v,%v) != exact (%v,%v)",
				seed, res.Min(), res.Max(), exact.Min(), exact.Max())
		}
		for _, p := range []float64{10, 25, 50, 75, 90, 95} {
			e, g := exact.Percentile(p), res.Percentile(p)
			if relErr(g, e) > 0.08 {
				t.Errorf("seed %d: p%.0f estimate %.4f vs exact %.4f (err %.1f%%)",
					seed, p, g, e, 100*relErr(g, e))
			}
		}
	}
}

// TestReservoirDeterministic: same seed, same stream → identical sample.
func TestReservoirDeterministic(t *testing.T) {
	build := func() *Distribution {
		rng := rand.New(rand.NewSource(5))
		d := NewReservoir(128, 99)
		for _, v := range drawLognormal(rng, 10_000) {
			d.Add(v)
		}
		return d
	}
	a, b := build(), build()
	for _, p := range []float64{1, 50, 99} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%.0f differs across same-seed reservoirs: %v vs %v",
				p, a.Percentile(p), b.Percentile(p))
		}
	}
}
