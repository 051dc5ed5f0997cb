package core

import (
	"testing"

	"pmp/internal/prefetch"
)

// BenchmarkPBDrainRequeue drives PMP's prefetch buffer the way the
// simulator does under a full MSHR file: drain up to the L1D prefetch
// queue's eight requests, then hand four in five back. One op is one
// drain of eight plus its requeues.
//
//	go test ./internal/core -run '^$' -bench PBDrainRequeue -benchmem
func BenchmarkPBDrainRequeue(b *testing.B) {
	p := New(DefaultConfig())
	n := p.region.Lines()
	levels := make([]prefetch.Level, n)
	for k := 1; k < n; k++ {
		switch {
		case k%3 == 0:
			levels[k] = prefetch.LevelL2
		case k%7 != 0:
			levels[k] = prefetch.LevelL1
		}
	}
	refill := func() {
		for r := uint64(0); r < 4; r++ {
			p.pb.Insert(100+r, int(r*13)%n, levels)
		}
	}
	refill()
	buf := make([]prefetch.Request, 0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := p.IssueInto(buf[:0], 8)
		if len(reqs) == 0 {
			refill()
			continue
		}
		for j, r := range reqs {
			if (i+j)%5 != 0 {
				p.Requeue(r)
			}
		}
	}
}
