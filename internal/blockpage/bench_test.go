package blockpage

import "testing"

// BenchmarkPhase1 measures the per-page cost of the phase-1 heuristic —
// it runs inline on every direct-path response, so it must stay cheap.
func BenchmarkPhase1(b *testing.B) {
	c := NewClassifier()
	corpus := Corpus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Phase1(corpus[i%len(corpus)].HTML)
	}
}

// BenchmarkPhase1Normal measures the fast path: a normal page that must
// not be convicted.
func BenchmarkPhase1Normal(b *testing.B) {
	c := NewClassifier()
	pages := NormalPages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Phase1(pages[i%len(pages)])
	}
}

// BenchmarkPhase1FleetPage measures phase 1 on what a fleet classifies: a
// clean 5 KiB rendered page, not the ~200-byte corpus pages above.
func BenchmarkPhase1FleetPage(b *testing.B) {
	c := NewClassifier()
	page := fleetPage(5 << 10)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Phase1(page)
	}
}
