package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/trace"
	"pmp/internal/trace/champsim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 0}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {499, 95},
		{500, 98}, {634, 98}, {999, 98}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := percentile(xs, 80); got != 4 {
		t.Errorf("p80 = %g, want 4 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

const tracesOutput = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 90ms (9.00%)
-----------+-------------------------------------------------------
      30ms   pmp/internal/cache.(*Cache).Lookup
             pmp/internal/sim.(*Core).lookupTop
-----------+-------------------------------------------------------
      20ms   pmp/internal/cache.(*Cache).findWay (inline)
             pmp/internal/cache.(*Cache).Lookup
-----------+-------------------------------------------------------
      10ms   pmp/internal/prefetchers/bop.(*BOP).Train
             pmp/internal/sim.(*Core).demandAccess
-----------+-------------------------------------------------------
      10ms   pmp/internal/prefetch.(*OutQueue).Pop
             pmp/internal/prefetchers/spp.(*SPP).Issue
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   pmp/internal/mem.Table[go.shape.uint64].Get
             pmp/internal/core.(*PMP).Train
-----------+-------------------------------------------------------
`

func TestParseTracesPerPackage(t *testing.T) {
	p, err := parseTraces(strings.NewReader(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"cache.self_s":       50 * time.Millisecond,
		"prefetchers.self_s": 10 * time.Millisecond,
		"prefetch.self_s":    10 * time.Millisecond,
		"mem.self_s":         10 * time.Millisecond,
		"sim.self_s":         0,
		"core.self_s":        0,
	}
	for _, l := range profileLayers {
		if w, ok := want[l.metric]; ok {
			if got := p.layer(l.packages); got != w {
				t.Errorf("%s = %v, want %v", l.metric, got, w)
			}
		}
	}
	if p.gc != 10*time.Millisecond || p.total != 90*time.Millisecond {
		t.Errorf("gc %v total %v, want 10ms and 90ms", p.gc, p.total)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pmp/internal/cache.(*Cache).Lookup":           "pmp/internal/cache",
		"runtime.mallocgc":                             "runtime",
		"pmp/internal/sim.(*Core).step.func1 (inline)": "pmp/internal/sim",
		"pmp/internal/prefetchers/bop.New":             "pmp/internal/prefetchers/bop",
		"pmp/internal/mem.Table[go.shape.uint64].Get":  "pmp/internal/mem",
		"pmp/internal/mem.Get[pmp/internal/x.T]":       "pmp/internal/mem",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTotal(t *testing.T) {
	got, err := parseTotal("Showing nodes accounting for 1.20GB, 96% of 1.25GB total\n")
	if err != nil || got != 1.25e9 {
		t.Errorf("parseTotal = %g, %v; want 1.25e9", got, err)
	}
}

func TestChampSimRoundTrip(t *testing.T) {
	recs := []trace.Record{
		{PC: 0x400100, Addr: 0x1000, Gap: 3, Dep: trace.DepPrev}, // no producer
		{PC: 0x400200, Addr: 0x2040, Gap: 0, Dep: trace.DepPrev},
		{PC: 0x400100, Addr: 0x1040, Gap: 7, Dep: trace.DepChain},
		{PC: 0x400100, Addr: 0x1080, Dep: trace.DepPrev}, // same PC: a chain
		{PC: 0x400300, Addr: 0, Dep: trace.DepChain},     // first of its PC
	}
	src, err := seededSource("ligra.graph-200", 7, 3000)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, trace.Collect(src, 0).Records()...)
	form := champsimForm(recs)
	if form[0].Dep != trace.DepNone || form[3].Dep != trace.DepChain || form[4].Dep != trace.DepNone || form[4].Addr != 8 {
		t.Fatalf("champsimForm: %+v %+v", form[3], form[4])
	}
	path := filepath.Join(t.TempDir(), "t.champsim")
	n, err := encodeChampSim(path, form)
	if err != nil {
		t.Fatal(err)
	}
	var instrs int64
	for _, r := range form {
		instrs += int64(r.Instructions())
	}
	if n != instrs*champsim.InstrBytes {
		t.Errorf("wrote %d bytes for %d instructions", n, instrs)
	}
	tr, st, err := champsim.ConvertFile(path, champsim.ConvertOptions{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if at := sameRecords(form, tr.Records()); at >= 0 {
		t.Fatalf("decoded record %d differs", at)
	}
	if st.Instructions != uint64(instrs) {
		t.Errorf("decoder saw %d instructions, want %d", st.Instructions, instrs)
	}
}

func TestCheckLawsRejectsBrokenResult(t *testing.T) {
	src, err := seededSource("spec06.stream-0", 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Collect(src, 0)
	cfg := bench.QuickScale().Config()
	r := sim.NewSystem(cfg, bench.NewPrefetcher(bench.NamePMP)).Run(tr)
	if err := checkLaws([]sim.Result{r}); err != nil {
		t.Fatalf("unmodified result: %v", err)
	}
	if err := checkWindow(r, tr.Records(), cfg); err != nil {
		t.Fatalf("unmodified result: %v", err)
	}
	for name, breakIt := range map[string]func(*sim.Result){
		"hits+misses": func(r *sim.Result) { r.L2C.DemandHits++ },
		"L2C beyond L1D": func(r *sim.Result) {
			extra := r.L1D.DemandMisses + 1 - r.L2C.DemandAccesses
			r.L2C.DemandAccesses += extra
			r.L2C.DemandMisses += extra
		},
		"LLC beyond L2C": func(r *sim.Result) {
			extra := r.L2C.DemandMisses + 1 - r.LLC.DemandAccesses
			r.LLC.DemandAccesses += extra
			r.LLC.DemandHits += extra
		},
		"DRAM beyond LLC": func(r *sim.Result) { r.DRAM.DemandRequests = r.LLC.DemandMisses + 1 },
	} {
		b := r
		breakIt(&b)
		if checkLaws([]sim.Result{b}) == nil {
			t.Errorf("%s: broken result accepted", name)
		}
	}
	b := r
	b.L1D.UsefulPrefetch = b.L1D.PrefetchFills + 1
	b.L1D.UselessPrefetx = 0
	if !outcomeLawBroken(b) {
		t.Error("more prefetch outcomes than fills not flagged")
	}
	b = r
	b.Instructions++
	if checkWindow(b, tr.Records(), cfg) == nil {
		t.Error("instruction count off by one accepted")
	}
}

func TestWrapTimedKeepsRequeuer(t *testing.T) {
	for _, name := range bench.Names() {
		inner := bench.NewPrefetcher(name)
		_, innerRQ := inner.(prefetch.Requeuer)
		_, wrapRQ := wrapTimed(inner, &pfCounters{}).(prefetch.Requeuer)
		if innerRQ != wrapRQ {
			t.Errorf("%s: inner Requeuer %v, wrapped %v", name, innerRQ, wrapRQ)
		}
	}
	if _, ok := wrapTimed(prefetch.Nop{}, &pfCounters{}).(prefetch.Requeuer); ok {
		t.Error("Nop gained Requeue from wrapping")
	}
}

func TestWrapTimedSimulatesIdentically(t *testing.T) {
	src, err := seededSource("spec17.stride-109", 5, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Collect(src, 0)
	cfg := bench.QuickScale().Config()
	plain := sim.NewSystem(cfg, bench.NewPrefetcher(bench.NamePMP)).Run(tr)
	c := &pfCounters{}
	timedRes := sim.NewSystem(cfg, wrapTimed(bench.NewPrefetcher(bench.NamePMP), c)).Run(tr)
	d1, d2 := newDigest(), newDigest()
	d1.add(plain)
	d2.add(timedRes)
	if d1.sum() != d2.sum() {
		t.Error("the timing decorator changed the simulated result")
	}
	if c.trains == 0 || c.issues == 0 || c.drained == 0 {
		t.Errorf("decorator saw no calls: %+v", c)
	}
}
