package cache

import (
	"math/rand"
	"testing"

	"pmp/internal/mem"
)

// Per-layer benchmarks for the cache tag probe, fill (with victim
// selection) and the MSHR file, at the default hierarchy's L1D and LLC
// geometries:
//
//	go test ./internal/cache -run '^$' -bench . -benchmem

var benchGeometries = []Config{
	{Name: "L1D-12way", Sets: 64, Ways: 12, Latency: 5, MSHRs: 16, PQSize: 8},
	{Name: "LLC-16way", Sets: 2048, Ways: 16, Latency: 20, MSHRs: 64, PQSize: 32},
}

// benchLines returns n pseudo-random line addresses drawn from a pool
// of `lines` distinct lines.
func benchLines(n, lines int, seed int64) []mem.Addr {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = mem.Addr(rng.Intn(lines)) << mem.LineShift
	}
	return out
}

// BenchmarkFindWay probes a full cache with an even mix of hits and
// misses (Contains is findWay behind the line alignment).
func BenchmarkFindWay(b *testing.B) {
	for _, cfg := range benchGeometries {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			capacity := cfg.Sets * cfg.Ways
			for i := 0; i < capacity; i++ {
				c.Fill(mem.Addr(i)<<mem.LineShift, 0, false)
			}
			probes := benchLines(4096, 2*capacity, 1)
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if c.Contains(probes[i&4095]) {
					hits++
				}
			}
			if hits == 0 && b.N > 4096 {
				b.Fatal("no hits")
			}
		})
	}
}

// BenchmarkFill fills pseudo-random lines from a pool four times the
// cache's capacity, so most fills miss and select a victim.
func BenchmarkFill(b *testing.B) {
	for _, cfg := range benchGeometries {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			pool := uint64(4 * cfg.Sets * cfg.Ways)
			x := uint64(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				c.Fill(mem.Addr((x>>33)%pool)<<mem.LineShift, uint64(i), i&1 == 0)
			}
		})
	}
}

// BenchmarkMSHRInFlight probes a full 64-entry MSHR file (the default
// LLC's) with lines of which one in eight is resident.
func BenchmarkMSHRInFlight(b *testing.B) {
	const entries = 64
	c := New(Config{Name: "LLC", Sets: 2048, Ways: 16, Latency: 20, MSHRs: entries, PQSize: 32})
	resident := benchLines(entries, 1<<30, 3)
	for _, l := range resident {
		c.ReserveMSHR(l, 0, 1<<40, true)
	}
	probes := benchLines(4096, 1<<30, 4)
	for i := 0; i < len(probes); i += 8 {
		probes[i] = resident[(i/8)%entries]
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		if _, ok := c.InFlight(probes[i&4095], 1); ok {
			found++
		}
	}
	if found == 0 && b.N > 4096 {
		b.Fatal("no resident line found")
	}
}
