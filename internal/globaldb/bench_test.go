package globaldb

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkIngest measures the pure report-ingest path (no fetches, no log,
// no feed) at the fleet steady state: 2000 registered clients spread over
// 16 ASes, each posting one fresh URL per iteration.
func BenchmarkIngest(b *testing.B) {
	const nClients, nASes = 2000, 16
	s, err := openStore(StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(1_000_000_000, 0)
	for c := 0; c < nClients; c++ {
		s.addUser(fmt.Sprintf("client-%05d", c))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % nClients
		if _, ok := s.ingest(fmt.Sprintf("client-%05d", c), base, []Report{{
			URL: fmt.Sprintf("fresh-%d.example/", i), ASN: 100 + c%nASes,
			Stages: []WireStage{{Type: 1, Detail: "nxdomain"}}, Tm: base,
		}}); !ok {
			b.Fatal("ingest rejected")
		}
	}
}
