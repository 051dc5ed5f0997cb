package sim

import (
	"strings"
	"testing"

	"pmp/internal/cache"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
	"pmp/internal/trace"
)

// twoLevelConfig returns a hierarchy with no L2C: a private L1D
// directly over a shared inclusive LLC.
func twoLevelConfig() Config {
	cfg := quickConfig()
	cfg.Levels = []LevelSpec{
		{Cache: cfg.L1D},
		{Cache: cfg.LLC, Shared: true, Inclusive: true},
	}
	return cfg
}

func TestTwoLevelHierarchyRuns(t *testing.T) {
	cfg := twoLevelConfig()
	s := NewSystem(cfg, prefetch.Nop{})
	if got := s.Machine().Levels(); got != 2 {
		t.Fatalf("Levels() = %d, want 2", got)
	}
	res := s.Run(streamTrace(30_000))
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.L1D.DemandAccesses == 0 || res.LLC.DemandAccesses == 0 {
		t.Errorf("both levels should see demand traffic: L1D=%d LLC=%d",
			res.L1D.DemandAccesses, res.LLC.DemandAccesses)
	}
	if res.L2C != (cache.Stats{}) {
		t.Errorf("2-level hierarchy has no L2C, stats should be zero: %+v", res.L2C)
	}
	if res.DRAM.Requests == 0 {
		t.Error("missing the LLC must reach DRAM")
	}
}

func TestTwoLevelPrefetchTargetsClampToHierarchy(t *testing.T) {
	// In a 2-level hierarchy, L2- and LLC-targeted requests both land
	// at the outer level; L1 requests at the inner. The run must not
	// panic and must issue at every nominal level.
	cfg := twoLevelConfig()
	cfg.Warmup = 0
	rec := &recorder{}
	target := mem.Addr(0x400000)
	var recs []trace.Record
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.Record{PC: 1, Addr: mem.Addr(0x100000 + i*mem.LineBytes)})
	}
	s := NewSystem(cfg, rec)
	rec.reqs = []prefetch.Request{
		{Addr: target, Level: prefetch.LevelL1},
		{Addr: target + 64*mem.LineBytes, Level: prefetch.LevelL2},
		{Addr: target + 128*mem.LineBytes, Level: prefetch.LevelLLC},
	}
	res := s.Run(trace.NewTrace("t", recs))
	for _, lv := range []prefetch.Level{prefetch.LevelL1, prefetch.LevelL2, prefetch.LevelLLC} {
		if res.PF.Issued[lv] == 0 {
			t.Errorf("no prefetch issued at nominal level %d", lv)
		}
	}
}

func TestInclusionPolicyKnob(t *testing.T) {
	// One-set caches so every line contends: line A stays hot in the
	// L1D while nine other lines stream through, overflowing the 8-way
	// LLC. L1 hits never refresh the LLC, so A's LLC copy goes stale
	// and is evicted. The inclusive (default) LLC back-invalidates A
	// out of the L1; NonInclusiveLLC leaves the L1 copy resident while
	// the LLC copy is gone.
	build := func(nonInclusive bool) *Machine {
		cfg := quickConfig()
		cfg.NonInclusiveLLC = nonInclusive
		cfg.L1D = cache.Config{Name: "L1D", Sets: 1, Ways: 2, Latency: 1, MSHRs: 8, PQSize: 2}
		cfg.L2C = cache.Config{Name: "L2C", Sets: 1, Ways: 4, Latency: 2, MSHRs: 8, PQSize: 2}
		cfg.LLC = cache.Config{Name: "LLC", Sets: 1, Ways: 8, Latency: 4, MSHRs: 8, PQSize: 2}
		return NewMachine(cfg, []prefetch.Prefetcher{prefetch.Nop{}})
	}
	run := func(m *Machine) (l1Has, llcHas bool) {
		c := m.Core(0)
		lineA := mem.Addr(0).Line()
		now := uint64(0)
		c.demandAccess(0x1, lineA, now)
		for i := 1; i <= 9; i++ {
			now += 10_000
			c.demandAccess(0x2, mem.Addr(i*mem.LineBytes), now)
			now += 10_000
			c.demandAccess(0x1, lineA, now)
		}
		return c.CacheAt(0).Contains(lineA), c.CacheAt(m.Levels() - 1).Contains(lineA)
	}

	l1Has, llcHas := run(build(false))
	if l1Has && !llcHas {
		t.Error("inclusive LLC violated: line resident in L1D but not LLC")
	}
	l1Has, llcHas = run(build(true))
	if !l1Has {
		t.Error("non-inclusive LLC: hot line should stay resident in L1D")
	}
	if llcHas {
		t.Error("non-inclusive LLC: stale LLC copy should have been evicted")
	}
}

func TestSharedLevelBackInvalidationAcrossCores(t *testing.T) {
	// Two cores over a 2-line shared inclusive outer level: when core
	// 0's traffic evicts a line core 1 holds in its L1, the
	// back-invalidation must reach core 1's private level and its
	// prefetcher's OnEvict.
	cfg := quickConfig()
	cfg.Levels = []LevelSpec{
		{Cache: cache.Config{Name: "L1", Sets: 1, Ways: 1, Latency: 1, MSHRs: 4, PQSize: 2}},
		{Cache: cache.Config{Name: "SL", Sets: 2, Ways: 1, Latency: 2, MSHRs: 8, PQSize: 4}, Shared: true, Inclusive: true},
	}
	rec0, rec1 := &recorder{}, &recorder{}
	m := NewMachine(cfg, []prefetch.Prefetcher{rec0, rec1})

	// Both lines map to shared-level set 0 (even line IDs).
	lineA := mem.Addr(0).Line()
	lineB := mem.Addr(2 * mem.LineBytes).Line()

	m.Core(1).demandAccess(0x1, lineA, 0)
	if !m.Core(1).CacheAt(0).Contains(lineA) || !m.Core(1).CacheAt(1).Contains(lineA) {
		t.Fatal("setup: core 1 should hold lineA in L1 and the shared level")
	}

	// Core 0 demands lineB: the 1-way shared set evicts lineA.
	m.Core(0).demandAccess(0x2, lineB, 0)
	if m.Core(1).CacheAt(1).Contains(lineA) {
		t.Fatal("shared level should have evicted lineA")
	}
	if m.Core(1).CacheAt(0).Contains(lineA) {
		t.Error("back-invalidation did not reach core 1's private L1")
	}
	evicted := false
	for _, l := range rec1.evicted {
		if l == lineA {
			evicted = true
		}
	}
	if !evicted {
		t.Error("core 1's prefetcher was not told about the back-invalidated line")
	}
}

// orderSource wraps a trace and logs which core pulled a record at
// each scheduling step (via the shared log slice).
type orderSource struct {
	trace.Source
	id  int
	log *[]int
}

func (o *orderSource) Next() (trace.Record, bool) {
	r, ok := o.Source.Next()
	if ok {
		*o.log = append(*o.log, o.id)
	}
	return r, ok
}

func TestLaggardCoreStepsNext(t *testing.T) {
	// Two cores on identical traces must interleave tightly: the run
	// loop always steps the core furthest behind in cycles, so neither
	// core can sprint ahead for more than a dispatch group.
	cfg := quickConfig()
	cfg.Warmup = 1_000
	cfg.Measure = 10_000
	var log []int
	srcs := []trace.Source{
		&orderSource{Source: streamTrace(100_000), id: 0, log: &log},
		&orderSource{Source: streamTrace(100_000), id: 1, log: &log},
	}
	NewMulticore(cfg, []prefetch.Prefetcher{prefetch.Nop{}, prefetch.Nop{}}).Run(srcs)

	counts := map[int]int{}
	maxRun, run, prev := 0, 0, -1
	for _, id := range log {
		counts[id]++
		if id == prev {
			run++
		} else {
			run, prev = 1, id
		}
		if run > maxRun {
			maxRun = run
		}
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("both cores must step: %v", counts)
	}
	// Ties go to the lower-indexed core until its cycle advances past
	// the other's, so short same-core bursts are expected — long ones
	// mean the laggard rule is broken.
	if maxRun > 50 {
		t.Errorf("one core ran %d consecutive steps; laggard scheduling should interleave", maxRun)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("identical traces should make near-equal progress, got %v", counts)
	}
}

func TestMaxTraceWrapsBoundsReplay(t *testing.T) {
	// A 1000-record trace (one instruction per record) under a huge
	// measure window finishes by the wrap limit: the initial pass plus
	// MaxTraceWraps replays.
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i % 8 * mem.LineBytes)}
	}
	cfg := quickConfig()
	cfg.Warmup = 0
	cfg.Measure = 1 << 40
	cfg.MaxTraceWraps = 3
	res := NewMulticore(cfg, []prefetch.Prefetcher{prefetch.Nop{}}).
		Run([]trace.Source{trace.NewTrace("w", recs)})
	want := uint64((cfg.MaxTraceWraps + 1) * len(recs))
	if res[0].Instructions != want {
		t.Errorf("instructions = %d, want %d (initial pass + %d wraps)",
			res[0].Instructions, want, cfg.MaxTraceWraps)
	}
}

func TestMaxTraceWrapsDefaultAndValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxTraceWraps = -1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "MaxTraceWraps") {
		t.Errorf("negative MaxTraceWraps should be rejected, got %v", err)
	}
	cfg.MaxTraceWraps = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero MaxTraceWraps (use default) rejected: %v", err)
	}
}

func TestHierarchyConfigValidation(t *testing.T) {
	base := quickConfig()
	l1 := LevelSpec{Cache: base.L1D}
	llc := LevelSpec{Cache: base.LLC, Shared: true, Inclusive: true}

	cfg := base
	cfg.Levels = []LevelSpec{l1}
	if err := cfg.Validate(); err == nil {
		t.Error("1-level hierarchy accepted")
	}

	cfg = base
	cfg.Levels = []LevelSpec{{Cache: base.L1D, Shared: true}, llc}
	if err := cfg.Validate(); err == nil {
		t.Error("shared innermost level accepted")
	}

	cfg = base
	cfg.Levels = []LevelSpec{l1, llc, {Cache: base.L2C}}
	if err := cfg.Validate(); err == nil {
		t.Error("private level below a shared one accepted")
	}

	cfg = base
	cfg.Levels = []LevelSpec{{Cache: base.L2C}, {Cache: base.L1D, Shared: true}}
	if err := cfg.Validate(); err == nil {
		t.Error("shrinking hierarchy accepted")
	}

	cfg = base
	cfg.Levels = []LevelSpec{l1, {Cache: base.L2C}, llc}
	if err := cfg.Validate(); err != nil {
		t.Errorf("explicit classic hierarchy rejected: %v", err)
	}
}
