package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"pmp/internal/mem"
)

// Differential test of the cache's summaries (tag fingerprints,
// separate LRU stamps) against a plain linear-scan reference model with
// no summaries at all. The MSHR file's signature has its own in
// TestMSHRFileMatchesMap.

// refLine is one way of the reference cache: every field in one place.
type refLine struct {
	tag        mem.Addr
	valid      bool
	lru        uint64
	ready      uint64
	rrpv       uint8
	prefetched bool
	used       bool
}

// refCache is a linear-scan model of Cache: a slice of ways per set,
// searched way by way.
type refCache struct {
	cfg     Config
	sets    [][]refLine
	stamp   uint64
	statsOn bool
	stats   Stats
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) set(a mem.Addr) []refLine {
	return r.sets[a.LineID()&uint64(r.cfg.Sets-1)]
}

func (r *refCache) find(a mem.Addr) *refLine {
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == a {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) lookup(a mem.Addr, now uint64, demand bool) (bool, uint64) {
	a = a.Line()
	r.stamp++
	if demand && r.statsOn {
		r.stats.DemandAccesses++
	}
	l := r.find(a)
	if l == nil {
		if demand && r.statsOn {
			r.stats.DemandMisses++
		}
		return false, 0
	}
	l.lru = r.stamp
	l.rrpv = 0
	ready := now + r.cfg.Latency
	if l.ready > ready {
		ready = l.ready
		if demand && l.prefetched && !l.used && r.statsOn {
			r.stats.LatePrefetch++
		}
	}
	if demand {
		if l.prefetched && !l.used {
			if r.statsOn {
				r.stats.UsefulPrefetch++
			}
			l.used = true
		}
		if r.statsOn {
			r.stats.DemandHits++
		}
	}
	return true, ready
}

func (r *refCache) victim(set []refLine) *refLine {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	if r.cfg.Policy == SRRIP {
		for {
			for i := range set {
				if set[i].rrpv >= 3 {
					return &set[i]
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	}
	v := &set[0]
	for i := range set {
		if set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

func (r *refCache) fill(a mem.Addr, ready uint64, prefetched bool) Eviction {
	a = a.Line()
	r.stamp++
	if prefetched && r.statsOn {
		r.stats.PrefetchFills++
	}
	if l := r.find(a); l != nil {
		l.ready = min(l.ready, ready)
		return Eviction{}
	}
	v := r.victim(r.set(a))
	ev := Eviction{}
	if v.valid {
		ev = Eviction{Kind: EvictClean, Line: v.tag, Prefetched: v.prefetched, Used: v.used}
		if v.prefetched && !v.used && r.statsOn {
			r.stats.UselessPrefetx++
		}
	}
	*v = refLine{tag: a, valid: true, lru: r.stamp, rrpv: 2, ready: ready, prefetched: prefetched}
	return ev
}

func (r *refCache) invalidate(a mem.Addr) bool {
	l := r.find(a.Line())
	if l == nil {
		return false
	}
	if l.prefetched && !l.used && r.statsOn {
		r.stats.UselessPrefetx++
	}
	l.valid = false
	return true
}

func (r *refCache) flush() {
	for _, set := range r.sets {
		clear(set)
	}
	r.stamp = 0
}

// collidingLines returns n distinct lines that all map to set 0 of a
// `sets`-set cache and share one tag fingerprint, so the fingerprint
// filter passes all of them and only the full tag compare tells them
// apart.
func collidingLines(n, sets int) []mem.Addr {
	var out []mem.Addr
	want := uint64(0)
	for id := uint64(sets); len(out) < n; id += uint64(sets) {
		a := mem.Addr(id << mem.LineShift)
		if f := fingerprint(a); want == 0 {
			want = f
		} else if f != want {
			continue
		}
		out = append(out, a)
	}
	return out
}

// TestCacheMatchesLinearScanReference drives Cache and refCache
// through the same random mix of Lookup, Fill, Invalidate, Contains,
// Flush and statistics toggles, and requires identical results at
// every step and identical counters at the end.
func TestCacheMatchesLinearScanReference(t *testing.T) {
	for _, ways := range []int{1, 3, 8, 12, 16, 20} {
		for _, policy := range []Policy{LRU, SRRIP} {
			t.Run(fmt.Sprintf("%dway-%s", ways, policy), func(t *testing.T) {
				cfg := Config{Name: "D", Sets: 4, Ways: ways, Latency: 4, MSHRs: 4, Policy: policy}
				c, ref := New(cfg), newRefCache(cfg)
				rng := rand.New(rand.NewSource(int64(ways)*10 + int64(policy)))
				// Random lines over three times the capacity, plus a
				// group sharing set 0 and one fingerprint.
				pool := collidingLines(ways+2, cfg.Sets)
				for len(pool) < 3*cfg.Sets*ways+ways+2 {
					pool = append(pool, mem.Addr(rng.Intn(1<<20))<<mem.LineShift)
				}
				now := uint64(0)
				for step := 0; step < 30_000; step++ {
					now += uint64(rng.Intn(8))
					a := pool[rng.Intn(len(pool))] + mem.Addr(rng.Intn(mem.LineBytes))
					switch op := rng.Intn(100); {
					case op < 40:
						demand := rng.Intn(4) != 0
						gh, gr := c.Lookup(a, now, demand)
						wh, wr := ref.lookup(a, now, demand)
						if gh != wh || gr != wr {
							t.Fatalf("step %d: Lookup(%#x) = (%v,%d), reference (%v,%d)", step, a, gh, gr, wh, wr)
						}
					case op < 75:
						ready := now + uint64(rng.Intn(200))
						pf := rng.Intn(2) == 0
						if got, want := c.Fill(a, ready, pf), ref.fill(a, ready, pf); got != want {
							t.Fatalf("step %d: Fill(%#x) = %+v, reference %+v", step, a, got, want)
						}
					case op < 85:
						if got, want := c.Invalidate(a), ref.invalidate(a); got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, a, got, want)
						}
					case op < 97:
						if got, want := c.Contains(a), ref.find(a.Line()) != nil; got != want {
							t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, a, got, want)
						}
					case op < 99:
						on := rng.Intn(2) == 0
						c.EnableStats(on)
						ref.statsOn = on
					default:
						c.Flush()
						ref.flush()
					}
				}
				if got, want := c.Stats(), ref.stats; got != want {
					t.Errorf("stats %+v, reference %+v", got, want)
				}
			})
		}
	}
}
