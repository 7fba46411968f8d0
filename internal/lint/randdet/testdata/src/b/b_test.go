package b

import "math/rand"

// A test may build its reference source from math/rand directly.
func reference(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
