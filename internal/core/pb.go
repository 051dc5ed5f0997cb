package core

import (
	"math/bits"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// pbEntry holds one arbitrated prefetch pattern awaiting issue, keyed by
// region (paper Fig 6c bottom).
//
// The per-target issue state is two rank bitmaps rather than a []bool:
// bit r of targetRank marks that order[r] is a real target (level !=
// LevelNone at insert), bit r of pendingRank that it is still awaiting
// issue. Draining walks pendingRank's set bits with TrailingZeros64 —
// nearest-first for free, since ranks are already nearest-first — and a
// requeued target is re-armed with one OR. Issued-but-unacknowledged
// targets are exactly targetRank &^ pendingRank.
type pbEntry struct {
	valid       bool
	region      uint64
	trigger     int              // trigger line offset, to unanchor targets
	levels      []prefetch.Level // anchored target levels; index 0 unused
	targetRank  uint64           // bit r: order[r] is a target
	pendingRank uint64           // bit r: order[r] not yet issued
	lru         uint64
}

// prefetchBuffer is PMP's Prefetch Buffer: a small fully-associative
// LRU store of final prefetch patterns. Prefetches drain nearest-first
// relative to the trigger line; when the prefetch queue fills, draining
// resumes on the next access to the region (the entry is bumped MRU by
// Touch).
type prefetchBuffer struct {
	entries []pbEntry
	region  mem.Region
	// order lists anchored indices nearest-first: 1, n-1, 2, n-2, ...
	// (anchored index k targets line (trigger+k) mod n, so small k is
	// just ahead of the trigger and n-k just behind).
	order []int
	// rankOf inverts order: rankOf[order[r]] == r (rankOf[0] unused).
	rankOf []int
	// hint is the slot of the most recently matched region. Requeues and
	// touches arrive in bursts against one region (a drain bounced off a
	// full MSHR file hands every request of the entry back), so checking
	// it first turns the associative scan into a single compare.
	hint int
	// pendingSlots has bit i set when entries[i] is valid with at least
	// one pending target, so the MRU search visits only drainable
	// entries (usually one) instead of every slot.
	pendingSlots []uint64
	// drainSlot is the slot mruPending last returned, so DrainInto can
	// clear its pending bit without a reverse lookup.
	drainSlot int
	stamp     uint64
	// crossRegion projects wrapping targets into the next region
	// (extension; see core.Config.CrossRegion).
	crossRegion bool
}

func newPrefetchBuffer(entries int, region mem.Region) *prefetchBuffer {
	n := region.Lines()
	order := make([]int, 0, n-1)
	for d := 1; d <= n/2; d++ {
		order = append(order, d)
		if other := n - d; other != d {
			order = append(order, other)
		}
	}
	rankOf := make([]int, n)
	for r, k := range order {
		rankOf[k] = r
	}
	pb := &prefetchBuffer{
		entries:      make([]pbEntry, entries),
		region:       region,
		order:        order,
		rankOf:       rankOf,
		pendingSlots: make([]uint64, (entries+63)/64),
	}
	for i := range pb.entries {
		pb.entries[i].levels = make([]prefetch.Level, n)
	}
	return pb
}

// Insert stores a freshly arbitrated pattern for the region, replacing
// an existing entry for the same region or the LRU victim.
func (pb *prefetchBuffer) Insert(region uint64, trigger int, levels []prefetch.Level) {
	pb.stamp++
	victim := 0
	oldest := ^uint64(0)
	for i := range pb.entries {
		e := &pb.entries[i]
		if e.valid && e.region == region {
			victim = i
			break
		}
		if !e.valid {
			if oldest != 0 {
				victim = i
				oldest = 0
			}
			continue
		}
		if e.lru < oldest {
			oldest, victim = e.lru, i
		}
	}
	pb.hint = victim
	e := &pb.entries[victim]
	e.valid = true
	e.region = region
	e.trigger = trigger
	e.lru = pb.stamp
	copy(e.levels, levels)
	e.targetRank = 0
	for r, k := range pb.order {
		if levels[k] != prefetch.LevelNone {
			e.targetRank |= 1 << uint(r)
		}
	}
	e.pendingRank = e.targetRank
	pb.setPending(victim, e.pendingRank != 0)
}

// setPending records whether slot i has pending targets.
//
//pmp:hotpath
func (pb *prefetchBuffer) setPending(i int, pending bool) {
	if pending {
		pb.pendingSlots[i>>6] |= 1 << uint(i&63)
	} else {
		pb.pendingSlots[i>>6] &^= 1 << uint(i&63)
	}
}

// Touch bumps the region's entry to MRU so draining resumes there. It
// reports whether the region was present.
//
//pmp:hotpath
func (pb *prefetchBuffer) Touch(region uint64) bool {
	i, ok := pb.lookup(region)
	if !ok {
		return false
	}
	pb.stamp++
	pb.entries[i].lru = pb.stamp
	return true
}

// lookup returns the slot holding region's entry. Regions are unique
// across slots (Insert replaces in place), so the hint-first probe is
// exact, not just heuristic.
//
//pmp:hotpath
func (pb *prefetchBuffer) lookup(region uint64) (int, bool) {
	if h := pb.hint; h < len(pb.entries) {
		if e := &pb.entries[h]; e.valid && e.region == region {
			return h, true
		}
	}
	for i := range pb.entries {
		e := &pb.entries[i]
		if e.valid && e.region == region {
			pb.hint = i
			return i, true
		}
	}
	return 0, false
}

// Drain emits up to max requests, MRU entry first, nearest offsets
// first within an entry.
func (pb *prefetchBuffer) Drain(max int) []prefetch.Request {
	if max <= 0 {
		return nil
	}
	return pb.DrainInto(nil, max)
}

// DrainInto emits up to max requests like Drain, appending them to the
// caller-owned dst: the allocation-free fast path behind
// prefetch.BulkIssuer. The inner walk visits only pending targets —
// one TrailingZeros64 per emitted request — instead of scanning every
// rank of the order.
//
//pmp:hotpath
func (pb *prefetchBuffer) DrainInto(dst []prefetch.Request, max int) []prefetch.Request {
	if max <= 0 {
		return dst
	}
	n := pb.region.Lines()
	emitted := 0
	for emitted < max {
		e := pb.mruPending()
		if e == nil {
			break
		}

		for m := e.pendingRank; m != 0 && emitted < max; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			k := pb.order[r]
			e.pendingRank &^= 1 << uint(r)
			if e.pendingRank == 0 {
				pb.setPending(pb.drainSlot, false)
			}
			regionID := e.region
			raw := e.trigger + k
			if raw >= n && pb.crossRegion {
				regionID++ // project forward instead of wrapping back
			}
			dst = append(dst, prefetch.Request{
				Addr:  pb.region.LineAddr(regionID, raw%n),
				Level: e.levels[k],
			})
			emitted++
		}
		// Fully drained entries stay resident: the system may hand
		// requests back via Requeue when MSHRs are full, and draining
		// resumes on the next access to the region.
	}
	return dst
}

// Requeue re-arms the issued target at (region, offset) so a later
// Drain re-issues it. Unknown regions (entry since replaced) and
// targets not issued are dropped. With cross-region projection the
// target may instead be one the preceding region's entry projected
// forward; the entry that issued it is re-armed.
//
//pmp:hotpath
func (pb *prefetchBuffer) Requeue(region uint64, offset int) {
	n := pb.region.Lines()
	if !pb.crossRegion {
		if i, ok := pb.lookup(region); ok {
			k := offset - pb.entries[i].trigger
			if k < 0 {
				k += n
			}
			pb.rearm(i, k)
		}
		return
	}
	// An entry issues its own region's targets above the trigger
	// (k = offset - trigger) and projects the rest into the next
	// region (k = offset + n - trigger).
	if i, ok := pb.lookup(region); ok && pb.rearm(i, offset-pb.entries[i].trigger) {
		return
	}
	if region > 0 {
		if i, ok := pb.lookup(region - 1); ok {
			pb.rearm(i, offset+n-pb.entries[i].trigger)
		}
	}
}

// rearm marks anchored index k of slot i pending again if it is a
// real target that was issued, and reports whether it was.
//
//pmp:hotpath
func (pb *prefetchBuffer) rearm(i, k int) bool {
	if k <= 0 || k >= pb.region.Lines() {
		return false
	}
	e := &pb.entries[i]
	bit := uint64(1) << uint(pb.rankOf[k])
	if e.targetRank&^e.pendingRank&bit == 0 {
		return false
	}
	e.pendingRank |= bit
	pb.setPending(i, true)
	return true
}

// mruPending returns the MRU entry with pending targets (recording its
// slot in drainSlot), walking only the pendingSlots bitmap.
//
//pmp:hotpath
func (pb *prefetchBuffer) mruPending() *pbEntry {
	var best *pbEntry
	var bestLRU uint64
	for w, bmw := range pb.pendingSlots {
		for m := bmw; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			e := &pb.entries[i]
			if best == nil || e.lru > bestLRU {
				best, bestLRU = e, e.lru
				pb.drainSlot = i
			}
		}
	}
	return best
}
