// Package b exercises randdet: package-level math/rand (and v2) draws
// are flagged, seeded-source construction and *rand.Rand methods are not,
// and a local identifier shadowing the package name never matches.
// rand.NewSource is flagged outside _test.go files (see b_test.go).
package b

import (
	"math/rand"
	v2 "math/rand/v2"
)

func bad() {
	_ = rand.Intn(10)                  // want `rand\.Intn uses the process-global math/rand source`
	_ = rand.Float64()                 // want `rand\.Float64 uses the process-global`
	_ = rand.Int63()                   // want `rand\.Int63 uses the process-global`
	_ = rand.Perm(5)                   // want `rand\.Perm uses the process-global`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle uses the process-global`
	rand.Seed(42)                      // want `rand\.Seed uses the process-global`
	_ = v2.IntN(5)                     // want `rand\.IntN uses the process-global`
	_ = v2.Float64()                   // want `rand\.Float64 uses the process-global`
}

func register(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `rand\.NewSource allocates math/rand's 607-word register; build seeded sources with seedrand\.New`
}

func good(src rand.Source) {
	r := rand.New(src)
	_ = r.Intn(10)
	_ = r.Float64()
	z := rand.NewZipf(r, 1.1, 1, 100)
	_ = z.Uint64()
	p := v2.New(v2.NewPCG(1, 2))
	_ = p.IntN(5)
}

type randLike struct{}

func (randLike) Intn(n int) int { return n }

func shadowed() {
	rand := randLike{}
	_ = rand.Intn(3) // a value selection, not the package: no diagnostic
}

func suppressed() {
	_ = rand.Intn(3) //lint:allow-rand demo of a justified global draw
}
