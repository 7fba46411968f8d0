// Package seedrand builds the simulation's seeded random sources. A
// source from New yields exactly the sequence of math/rand's
// rand.NewSource(seed), but for its first 273 draws it holds only the
// seed and a draw count instead of math/rand's 607-word register (a
// 5,376 B allocation). A fleet builds several sources per client and most
// of them are read a few dozen times, so the register was the largest
// live allocation per client.
//
// math/rand's source is an additive lagged-Fibonacci register of length
// 607 with tap 273. Seeding fills slot i with
//
//	init[i] = (x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i]) ^ cooked[i]
//
// where x[n] = 48271^n·x[0] mod (2^31−1) is a Lehmer LCG started at the
// normalized seed, and draw k adds the slot at its feed index to the one
// at its tap index and stores the sum at the feed index. The first 273
// draws read only slots no earlier draw has written, so draw k is
// init[334−k] + init[607−k]: six multiply-mods against a table of powers
// of 48271. Draw 274 would read draw 1's sum, so there the source swaps
// in a real math/rand source advanced by 273 draws and continues from it.
//
// The cooked table is recovered, not copied: a reference source run for
// 607 draws has written every slot exactly once, so undoing the draws in
// reverse gives its seeded register, and xoring off the LCG part leaves
// cooked.
package seedrand

import (
	"math/rand"
	"sync"
)

const (
	regLen  = 607 // math/rand's register length
	regTap  = 273 // and its tap: the draws computable from the seed alone
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 21 // x[21] is the first LCG value seeding touches
)

// tables holds the per-process constants: 48271^n mod (2^31−1) for every
// LCG index seeding reads, and math/rand's cooked xor table.
var tables = sync.OnceValues(func() (*[lcgSkip + 3*regLen]uint64, *[regLen]uint64) {
	pow := new([lcgSkip + 3*regLen]uint64)
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * lcgMul % lcgMod
	}

	const refSeed = 1
	ref := rand.NewSource(refSeed).(rand.Source64)
	// Draw k (1-based) stores its output at feed(k) = (334−k) mod 607
	// after adding the slot at tap(k) = 607−k, so 607 draws leave each
	// slot holding the one output written there; undo them last to first.
	feed := func(k int) int { return (2*regLen - regTap - k) % regLen }
	var vec [regLen]uint64
	for k := 1; k <= regLen; k++ {
		vec[feed(k)] = ref.Uint64()
	}
	for k := regLen; k >= 1; k-- {
		vec[feed(k)] -= vec[regLen-k]
	}
	cooked := new([regLen]uint64)
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(pow, refSeed, i)
	}
	return pow, cooked
})

// lcgWord is the LCG part of register slot i for normalized seed x0.
func lcgWord(pow *[lcgSkip + 3*regLen]uint64, x0 uint64, i int) uint64 {
	n := lcgSkip + 3*i
	return pow[n]*x0%lcgMod<<40 ^ pow[n+1]*x0%lcgMod<<20 ^ pow[n+2]*x0%lcgMod
}

// source is a rand.Source64 with math/rand's sequence. Until draw regTap
// it computes each value from x0; after that it delegates to full.
type source struct {
	x0   uint32 // the seed as math/rand normalizes it, in [1, 2^31−1)
	n    uint32 // draws so far, while full is nil
	full rand.Source64
}

// New returns a *rand.Rand whose every method yields what
// rand.New(rand.NewSource(seed)) would, Seed included.
func New(seed int64) *rand.Rand { return rand.New(newSource(seed)) }

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets the source to math/rand's state for seed.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for the LCG's fixed point
	}
	*s = source{x0: uint32(seed)}
}

func (s *source) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	if s.n == regTap {
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range regTap {
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.n++
	pow, cooked := tables()
	k, x0 := int(s.n), uint64(s.x0)
	a, b := regLen-regTap-k, regLen-k
	return (lcgWord(pow, x0, a) ^ cooked[a]) + (lcgWord(pow, x0, b) ^ cooked[b])
}

func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
