package cache

import "pmp/internal/mem"

// mshrFile tracks outstanding misses in a fixed-capacity array sized
// by Config.MSHRs, replacing the map the cache used previously. The
// simulator probes MSHR occupancy on every prefetch admission
// (prefetchRoom -> MSHRBusy), which made map iteration the single
// hottest path in whole-system profiles; a real MSHR file is a handful
// of SRAM entries searched associatively, and modelling it as a small
// linear-scan array is both faster and closer to the hardware.
//
// Two summaries sit in front of the array and keep the common probes
// O(1):
//
//   - minDone is a lower bound on every entry's completion cycle, so
//     prune — called on every prefetch admission — returns without
//     touching a single slot while no entry can have completed
//     (minDone > now). The bound is maintained monotonically on
//     insert/refresh and recomputed exactly whenever a scan happens
//     anyway.
//   - sig is a 256-bit line-hash signature (one Fibonacci-hashed bit per
//     resident line, a 1-hash Bloom filter): find rejects absent lines
//     with one AND instead of a scan. Bits are only ORed in; the
//     signature is rebuilt exactly during prune's scan. 256 bits keep
//     the filter selective for the LLC's 64-entry file, which would
//     set most bits of a 64-bit signature.
//
// Semantics mirror the original map exactly (the simulator's outputs
// are bit-identical): an entry persists — even past its completion
// cycle — until a prune (MSHRBusy or a capacity check inside reserve)
// removes it, and reserving a line that still has an entry refreshes
// the completion time without a capacity check.
//
// Lines and completion cycles live in parallel arrays
// (structure-of-arrays) so the associative line search touches one
// densely packed cache line of tags.
type mshrFile struct {
	lines   []mem.Addr // entries [0:n] are occupied
	done    []uint64   // completion cycles, parallel to lines
	n       int
	minDone uint64    // lower bound on min done[0:n]; ^0 when empty
	sig     [4]uint64 // superset of lineSig bits of resident lines
}

// lineSig hashes a line address to a single signature bit, returned as
// a word index into sig and a mask. Fibonacci hashing (multiply by
// 2^64/phi, take the top 8 bits) spreads the low-entropy line
// addresses evenly across the 256 signature bits. The word index is
// below 4; callers mask it with &3 so the compiler drops the bounds
// check.
//
//pmp:hotpath
func lineSig(line mem.Addr) (int, uint64) {
	h := uint64(line) * 0x9E3779B97F4A7C15 >> 56
	return int(h >> 6), 1 << (h & 63)
}

// newMSHRFile sizes the file for `capacity` simultaneous misses.
// Capacity is exact: reserve prunes completed entries before inserting
// and never admits past the caller's limit, so n <= capacity always.
func newMSHRFile(capacity int) mshrFile {
	return mshrFile{
		lines:   make([]mem.Addr, capacity),
		done:    make([]uint64, capacity),
		minDone: ^uint64(0),
	}
}

// find returns the slot index holding line, or -1. Stale entries
// (done in the past) are found too, matching the map's behaviour.
//
//pmp:hotpath
func (m *mshrFile) find(line mem.Addr) int {
	if w, bit := lineSig(line); m.sig[w&3]&bit == 0 {
		return -1
	}
	for i := 0; i < m.n; i++ {
		if m.lines[i] == line {
			return i
		}
	}
	return -1
}

// prune drops entries whose completion is at or before now and returns
// the number still busy. While the cached completion lower bound sits
// beyond now — the overwhelmingly common case between misses — nothing
// can be prunable and no slot is touched. A real scan compacts the
// file and rebuilds both summaries exactly.
//
//pmp:hotpath
func (m *mshrFile) prune(now uint64) int {
	if m.minDone > now {
		return m.n
	}
	minDone := ^uint64(0)
	var sig [4]uint64
	for i := 0; i < m.n; {
		if m.done[i] <= now {
			m.n--
			m.lines[i] = m.lines[m.n]
			m.done[i] = m.done[m.n]
		} else {
			minDone = min(minDone, m.done[i])
			w, bit := lineSig(m.lines[i])
			sig[w&3] |= bit
			i++
		}
	}
	m.minDone = minDone
	m.sig = sig
	return m.n
}

// inFlight reports whether a miss for the line is outstanding strictly
// after now, and its completion cycle.
//
//pmp:hotpath
func (m *mshrFile) inFlight(line mem.Addr, now uint64) (uint64, bool) {
	i := m.find(line)
	if i < 0 || m.done[i] <= now {
		return 0, false
	}
	return m.done[i], true
}

// reserve allocates (or refreshes) the entry for line with completion
// `done`, admitting at most `limit` busy entries at `now`. A line that
// already holds an entry is refreshed unconditionally — the demand
// path reserves a placeholder before the hierarchy walk computes the
// real latency.
//
//pmp:hotpath
func (m *mshrFile) reserve(line mem.Addr, now, done uint64, limit int) bool {
	if i := m.find(line); i >= 0 {
		m.done[i] = done
		m.minDone = min(m.minDone, done)
		return true
	}
	if m.prune(now) >= limit {
		return false
	}
	m.lines[m.n] = line
	m.done[m.n] = done
	m.n++
	m.minDone = min(m.minDone, done)
	w, bit := lineSig(line)
	m.sig[w&3] |= bit
	return true
}

// earliest returns the soonest completion strictly after now, or false
// when none is in flight.
//
//pmp:hotpath
func (m *mshrFile) earliest(now uint64) (uint64, bool) {
	best := ^uint64(0)
	found := false
	for i := 0; i < m.n; i++ {
		if d := m.done[i]; d > now && d < best {
			best = d
			found = true
		}
	}
	return best, found
}

// reset discards every entry.
func (m *mshrFile) reset() {
	m.n = 0
	m.minDone = ^uint64(0)
	m.sig = [4]uint64{}
}
