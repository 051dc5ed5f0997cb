package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"pmp/internal/cache"
	"pmp/internal/sim"
	"pmp/internal/trace"
)

// levels returns the three cache levels a Result exposes, innermost
// first. A two-level hierarchy leaves the middle slot zero.
func levels(r sim.Result) [3]cache.Stats { return [3]cache.Stats{r.L1D, r.L2C, r.LLC} }

var levelNames = [3]string{"L1D", "L2C", "LLC"}

// outcomeLawBroken reports whether some level counts more prefetch
// outcomes than prefetch fills: UsefulPrefetch + UselessPrefetx must
// not exceed PrefetchFills when every outcome is charged to the window
// its fill happened in. It breaks today because outcomes of lines
// prefetched during warm-up are counted in the measured window.
func outcomeLawBroken(r sim.Result) bool {
	for _, s := range levels(r) {
		if s.UsefulPrefetch+s.UselessPrefetx > s.PrefetchFills {
			return true
		}
	}
	return false
}

// checkLaws verifies the conservation laws every job of one run must
// obey, for the per-core results of one machine (one element for a
// single-core run). It returns the first violation, or nil. The
// prefetch-outcome law is left to outcomeLawBroken, since it has a
// known fault.
func checkLaws(rs []sim.Result) error {
	if len(rs) == 0 {
		return fmt.Errorf("no results")
	}
	var innerMissesLLC uint64
	for i, r := range rs {
		lv := levels(r)
		for j, s := range lv {
			if s.DemandHits+s.DemandMisses != s.DemandAccesses {
				return fmt.Errorf("core %d %s: hits %d + misses %d != accesses %d",
					i, levelNames[j], s.DemandHits, s.DemandMisses, s.DemandAccesses)
			}
		}
		if lv[1].DemandAccesses > lv[0].DemandMisses {
			return fmt.Errorf("core %d: L2C accesses %d exceed L1D misses %d",
				i, lv[1].DemandAccesses, lv[0].DemandMisses)
		}
		if lv[1] == (cache.Stats{}) {
			innerMissesLLC += lv[0].DemandMisses // two-level hierarchy
		} else {
			innerMissesLLC += lv[1].DemandMisses
		}
	}
	// The LLC is shared: every core reports the same counters.
	if llc := rs[0].LLC.DemandAccesses; llc > innerMissesLLC {
		return fmt.Errorf("LLC accesses %d exceed the inner levels' misses %d", llc, innerMissesLLC)
	}
	if len(rs) == 1 && rs[0].DRAM.DemandRequests > rs[0].LLC.DemandMisses {
		return fmt.Errorf("DRAM demand requests %d exceed LLC misses %d",
			rs[0].DRAM.DemandRequests, rs[0].LLC.DemandMisses)
	}
	return nil
}

// windowCounts walks records through the simulator's warm-up and
// measurement windows the way the method defines them: a record starts
// the measured window once warmup instructions have been dispatched
// before it, and the window closes once measure instructions have been
// dispatched inside it (measure 0: the rest of the trace). It returns
// the measured instructions and L1D demand accesses (one per load).
func windowCounts(recs []trace.Record, warmup, measure uint64) (instr, accesses uint64) {
	var dispatched, start uint64
	warm := false
	for _, r := range recs {
		if !warm && dispatched >= warmup {
			warm, start = true, dispatched
		}
		if warm && measure > 0 && dispatched-start >= measure {
			break
		}
		if warm {
			accesses++
		}
		dispatched += r.Instructions()
	}
	if !warm { // a trace shorter than warm-up is measured in full
		return dispatched, uint64(len(recs))
	}
	return dispatched - start, accesses
}

// checkWindow compares a single-core Result against windowCounts over
// the records it was simulated from.
func checkWindow(r sim.Result, recs []trace.Record, cfg sim.Config) error {
	instr, acc := windowCounts(recs, cfg.Warmup, cfg.Measure)
	if r.Instructions != instr || r.L1D.DemandAccesses != acc {
		return fmt.Errorf("%s: simulated %d instructions / %d accesses, the windows hold %d / %d",
			r.Trace, r.Instructions, r.L1D.DemandAccesses, instr, acc)
	}
	return nil
}

// digest accumulates a sha256 over simulated Results, so a change that
// claims to alter speed only can show that no statistic moved.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(r sim.Result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // sim.Result is plain data; marshaling cannot fail
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
