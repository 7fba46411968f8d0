package seedrand

import (
	"math/rand"
	"runtime"
	"testing"
)

var seeds = []int64{0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, 1 << 40, -1 << 62}

// draw takes one value from r by a method chosen by i, so a comparison
// walks math/rand's Int63, Uint64, Float64 and Intn paths in turn.
func draw(r *rand.Rand, i int) uint64 {
	switch i % 4 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Float64() * (1 << 53))
	default:
		return uint64(r.Intn(1000 + i))
	}
}

// TestMatchesMathRand holds New to rand.New(rand.NewSource(seed)) draw for
// draw, across the switch to the full register at draw 274 and across a
// Seed call in the middle of the stream, both before and after the switch.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range seeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if i == 100 || i == 1500 {
				reseed := seed ^ int64(i)
				got.Seed(reseed)
				want.Seed(reseed)
			}
			if g, w := draw(got, i), draw(want, i); g != w {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, i, g, w)
			}
		}
	}
}

// TestStaysSmall: a source holds a few words until its draws run past the
// computable window, where math/rand's holds the whole register.
func TestStaysSmall(t *testing.T) {
	perCall := func(f func(int64) any) uint64 {
		const n = 1000
		keep := make([]any, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = f(int64(i))
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	small := perCall(func(seed int64) any {
		s := newSource(seed)
		for range regTap {
			s.Uint64()
		}
		return s
	})
	full := perCall(func(seed int64) any { return rand.NewSource(seed) })
	if small > 64 || full < 5376 {
		t.Fatalf("bytes per source: seedrand %d (want <= 64), math/rand %d (want >= 5376)", small, full)
	}
	t.Logf("bytes per source: seedrand %d, math/rand %d", small, full)
}

func FuzzSource(f *testing.F) {
	for _, seed := range seeds {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%1024); i++ {
			if g, w := draw(got, i), draw(want, i); g != w {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, i, g, w)
			}
		}
	})
}
