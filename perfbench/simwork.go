package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"pmp/internal/bench"
	"pmp/internal/prefetch"
	"pmp/internal/sim"
	"pmp/internal/sweep"
	"pmp/internal/trace"
	"pmp/internal/trace/champsim"
)

const (
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median, since one set-up is short enough for host noise to swamp.
	setupReps = 3
	// minPasses keeps a median meaningful when a pass is slow.
	minPasses = 3
	// champsimRecords sizes each champsim-nopf trace: 14 traces of this
	// many records expand to about 460 MB of raw ChampSim records, which
	// the conversion reads at several hundred MB/s.
	champsimRecords = 80_000
	// ioProbeRecords caps the records per trace the traced run writes,
	// drains and round-trips through ChampSim when the workload itself
	// does not.
	ioProbeRecords = 40_000
)

// simInput is one trace as the simulator reads it, with the records it
// holds, against which the measurement windows are checked.
type simInput struct {
	recs []trace.Record
	src  trace.Source
}

// pass is one simulation of every input.
type pass struct {
	wall    float64   // summed simulation wall time, seconds
	simWall []float64 // per simulation, seconds
	acc     uint64    // L1D demand accesses
	results []sim.Result
}

// hooks are what a pass records besides its results; nil fields are
// not recorded.
type hooks struct {
	pf    *pfCounters    // wrap the prefetcher in the timing decorator
	build *time.Duration // time machine construction
	probe *hostProbe     // sample the host before each simulation
}

// runPass simulates every input once on this goroutine.
func runPass(inputs []simInput, cfg sim.Config, pf string, h hooks) pass {
	var p pass
	for _, in := range inputs {
		if h.probe != nil {
			h.probe.sample()
		}
		start := time.Now()
		var pref prefetch.Prefetcher = bench.NewPrefetcher(pf)
		if h.pf != nil {
			pref = wrapTimed(pref, h.pf)
		}
		m := sim.NewMachineAt(cfg, []prefetch.Prefetcher{pref}, nil, false)
		if h.build != nil {
			*h.build += time.Since(start)
		}
		r := m.Run([]trace.Source{in.src})[0]
		w := since(start)
		p.wall += w
		p.simWall = append(p.simWall, w)
		p.acc += r.L1D.DemandAccesses
		p.results = append(p.results, r)
	}
	return p
}

// runPasses repeats whole passes until seconds have passed, and at
// least minPasses times.
func runPasses(inputs []simInput, cfg sim.Config, pf string, seconds float64, h hooks) []pass {
	var ps []pass
	start := time.Now()
	for len(ps) < minPasses || since(start) < seconds {
		runtime.GC()
		ps = append(ps, runPass(inputs, cfg, pf, h))
	}
	return ps
}

// checkPasses checks the first pass's results against the laws and
// the measurement windows, and every later pass against the first. It
// returns the failed checks, the simulations that break the
// prefetch-outcome law, and the digest of one pass.
func checkPasses(ps []pass, inputs []simInput, cfg sim.Config) (wrong []string, outcomeBreaks int, sum string) {
	var first string
	for i, p := range ps {
		d := newDigest()
		for j, r := range p.results {
			d.add(r)
			if i > 0 {
				continue
			}
			if err := checkLaws([]sim.Result{r}); err != nil {
				wrong = append(wrong, fmt.Sprintf("%s: %v", r.Trace, err))
			}
			if err := checkWindow(r, inputs[j].recs, cfg); err != nil {
				wrong = append(wrong, err.Error())
			}
			if outcomeLawBroken(r) {
				outcomeBreaks++
			}
		}
		if i == 0 {
			first = d.sum()
		} else if d.sum() != first {
			wrong = append(wrong, fmt.Sprintf("pass %d simulated different results than pass 1", i+1))
		}
	}
	return wrong, outcomeBreaks, first
}

// simEndToEnd computes the end-to-end metrics of simulation passes.
// Throughput is the median over passes. A job is the simulation of one
// trace, which runs once per pass: its time is its median over the
// passes, so a burst of host contention in one pass does not set the
// tail, and the percentiles are taken over the jobs.
func simEndToEnd(ps []pass) metrics {
	m := metrics{}
	var accRate, jobRate []float64
	perJob := make([][]float64, len(ps[0].simWall))
	for _, p := range ps {
		accRate = append(accRate, float64(p.acc)/p.wall)
		jobRate = append(jobRate, float64(len(p.simWall))/p.wall)
		for j, w := range p.simWall {
			perJob[j] = append(perJob[j], w)
		}
	}
	jobs := make([]float64, len(perJob))
	for j, ws := range perJob {
		jobs[j] = median(ws)
	}
	m.set("sim_acc_per_s", "acc/s", median(accRate))
	m.set("sweep_jobs_per_s", "jobs/s", median(jobRate))
	setJobTimes(m, jobs)
	return m
}

// setJobTimes sets job_p50_ms and job_p98_ms from per-job seconds.
func setJobTimes(m metrics, jobs []float64) {
	m.set("job_p50_ms", "ms", 1e3*median(jobs))
	m.set("job_p98_ms", "ms", 1e3*percentile(jobs, 98))
}

func jobNote(jobs int) string {
	p := tailPercentile(jobs)
	if p == 0 {
		return fmt.Sprintf("job times: %d jobs, too few for a tail; job_p98_ms is the nearest-rank p98 (the slowest job)", jobs)
	}
	return fmt.Sprintf("job times: %d samples; the highest percentile with ten samples beyond it is p%g", jobs, p)
}

func specNames(specs []trace.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// simPMP: PMP at the L1D over the default-scale mix, materialized in
// set-up and simulated serially.
func simPMP(e env) (outcome, error) {
	sc := bench.DefaultScale()
	names, cfg := specNames(sc.Specs()), sc.Config()
	var trs []*trace.Trace
	var setups []float64
	for i := 0; i < setupReps; i++ {
		trs = nil
		runtime.GC()
		start := time.Now()
		var err error
		if trs, err = materialize(names, e.seed, sc.Records); err != nil {
			return outcome{}, err
		}
		setups = append(setups, since(start))
	}
	inputs := make([]simInput, len(trs))
	nrec := 0
	for i, tr := range trs {
		inputs[i] = simInput{recs: tr.Records(), src: tr}
		nrec += tr.Len()
	}
	if e.traced {
		io, err := traceIO(e, trs, ioProbeRecords)
		if err != nil {
			return outcome{}, err
		}
		io.genNS = 1e9 * median(setups) / float64(nrec)
		return simTraced(e, inputs, cfg, bench.NamePMP, io)
	}
	setupRSS := selfPeakRSSMiB()
	hp := newHostProbe()
	ps := runPasses(inputs, cfg, bench.NamePMP, e.seconds, hooks{probe: hp})
	probe := hp.finish()
	out := simOutcome(ps, inputs, cfg)
	out.notes = append(out.notes, normalize(out.metrics, probe),
		fmt.Sprintf("peak RSS %.1f MiB after set-up, %.1f MiB at the end", setupRSS, selfPeakRSSMiB()))
	out.metrics.set("setup_s", "s", median(setups))
	out.metrics.set("peak_rss_mb", "MiB", selfPeakRSSMiB())
	return out, nil
}

// simOutcome checks passes and assembles the end-to-end outcome.
func simOutcome(ps []pass, inputs []simInput, cfg sim.Config) outcome {
	wrong, breaks, sum := checkPasses(ps, inputs, cfg)
	out := outcome{metrics: simEndToEnd(ps), digest: sum, wrong: wrong}
	rates := make([]string, len(ps))
	for i, p := range ps {
		out.attempted += len(p.results)
		rates[i] = fmt.Sprintf("%.0f", float64(p.acc)/p.wall)
	}
	out.notes = append(out.notes, jobNote(len(inputs)),
		fmt.Sprintf("%d passes, acc/s of each: %s", len(ps), strings.Join(rates, " ")),
		fmt.Sprintf("prefetch-outcome law (useful+useless <= prefetch fills) broken by %d of %d simulations per pass; "+
			"which traces break it depends on the seed, so it is reported here and not counted as failed",
			breaks, len(inputs)))
	return out
}

// champsimNoPF: the real-workload path with no prefetcher. Seeded
// traces are encoded as ChampSim records; set-up converts them, writes
// them as .pmpt and opens them, and the passes simulate from the
// mmapped files.
func champsimNoPF(e env) (outcome, error) {
	sc := bench.DefaultScale()
	names, cfg := specNames(sc.Specs()), sc.Config()
	genStart := time.Now()
	trs, err := materialize(names, e.seed, champsimRecords)
	if err != nil {
		return outcome{}, err
	}
	genNS := 1e9 * since(genStart) / float64(len(trs)*champsimRecords)
	for i, tr := range trs {
		trs[i] = trace.NewTrace(tr.Name(), champsimForm(tr.Records()))
	}
	raw := make([]string, len(trs))
	for i, tr := range trs {
		raw[i] = filepath.Join(e.work, fmt.Sprintf("%02d.champsim", i))
		if _, err := encodeChampSim(raw[i], tr.Records()); err != nil {
			return outcome{}, fmt.Errorf("%s: encode: %w", names[i], err)
		}
	}
	var setups []float64
	var files []*trace.FileSource
	var wrong []string
	var io ioLayers
	for rep := 0; rep < setupReps; rep++ {
		closeAll(files)
		files, io = nil, ioLayers{} // let the collection below free the last rep
		runtime.GC()
		start := time.Now()
		if files, io, err = convertAll(raw, names, e.work); err != nil {
			return outcome{}, err
		}
		setups = append(setups, since(start))
	}
	defer closeAll(files)
	inputs := make([]simInput, len(trs))
	for i, tr := range trs {
		if w := verifyFile(files[i], tr.Records()); w != "" {
			wrong = append(wrong, names[i]+": "+w)
		}
		inputs[i] = simInput{recs: tr.Records(), src: files[i]}
	}
	for i, conv := range io.converted {
		if at := sameRecords(trs[i].Records(), conv); at >= 0 {
			wrong = append(wrong, fmt.Sprintf("%s: ChampSim decode differs from the encoded records at %d", names[i], at))
		}
	}
	io.converted = nil
	if e.traced {
		io.genNS = genNS
		if err := drainFiles(files, &io); err != nil {
			return outcome{}, err
		}
		out, err := simTraced(e, inputs, cfg, bench.NameNone, io)
		out.wrong = append(out.wrong, wrong...)
		return out, err
	}
	setupRSS := selfPeakRSSMiB()
	hp := newHostProbe()
	ps := runPasses(inputs, cfg, bench.NameNone, e.seconds, hooks{probe: hp})
	probe := hp.finish()
	out := simOutcome(ps, inputs, cfg)
	out.notes = append(out.notes, normalize(out.metrics, probe),
		fmt.Sprintf("peak RSS %.1f MiB after set-up, %.1f MiB at the end", setupRSS, selfPeakRSSMiB()))
	out.wrong = append(wrong, out.wrong...)
	for _, r := range ps[0].results {
		if r.PF.Total() != 0 || r.L1D.PrefetchFills+r.L2C.PrefetchFills+r.LLC.PrefetchFills != 0 {
			out.wrong = append(out.wrong, r.Trace+": prefetches issued with no prefetcher")
		}
	}
	out.metrics.set("setup_s", "s", median(setups))
	out.metrics.set("peak_rss_mb", "MiB", selfPeakRSSMiB())
	return out, nil
}

// ioLayers holds the trace-I/O layer measurements of one run.
type ioLayers struct {
	genNS, fileNS       float64 // per record
	writeMBps, decodeMB float64
	converted           [][]trace.Record // decoded records, for the round-trip check
}

// convertAll is champsim-nopf's set-up: convert each raw ChampSim file,
// write it as .pmpt, and open the .pmpt (mmapped).
func convertAll(raw, names []string, dir string) ([]*trace.FileSource, ioLayers, error) {
	var l ioLayers
	var rawBytes, pmptBytes int64
	var decode, write time.Duration
	files := make([]*trace.FileSource, len(raw))
	for i, path := range raw {
		start := time.Now()
		tr, st, err := champsim.ConvertFile(path, champsim.ConvertOptions{Name: names[i]})
		if err != nil {
			closeAll(files)
			return nil, l, err
		}
		decode += time.Since(start)
		fi, err := os.Stat(path)
		if err != nil {
			closeAll(files)
			return nil, l, err
		}
		rawBytes += fi.Size()
		if st.Loads != uint64(tr.Len()) {
			closeAll(files)
			return nil, l, fmt.Errorf("%s: decoder counted %d loads for %d records", names[i], st.Loads, tr.Len())
		}
		l.converted = append(l.converted, tr.Records())
		pmpt := filepath.Join(dir, fmt.Sprintf("%02d.pmpt", i))
		start = time.Now()
		n, err := writePMPT(pmpt, tr)
		if err != nil {
			closeAll(files)
			return nil, l, err
		}
		write += time.Since(start)
		pmptBytes += n
		if files[i], err = trace.OpenFile(pmpt); err != nil {
			closeAll(files)
			return nil, l, err
		}
	}
	l.decodeMB = float64(rawBytes) / 1e6 / decode.Seconds()
	l.writeMBps = float64(pmptBytes) / 1e6 / write.Seconds()
	return files, l, nil
}

// writePMPT writes a trace with trace.Write and returns the file size.
func writePMPT(path string, tr *trace.Trace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.Write(w, tr); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), f.Close()
}

func closeAll(files []*trace.FileSource) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}

// verifyFile checks that a .pmpt file reads back exactly recs.
func verifyFile(f *trace.FileSource, recs []trace.Record) string {
	f.Reset()
	for i := 0; ; i++ {
		r, ok := f.Next()
		if !ok {
			if i != len(recs) {
				return fmt.Sprintf(".pmpt holds %d records, %d were written", i, len(recs))
			}
			f.Reset()
			return ""
		}
		if i >= len(recs) || r != recs[i] {
			return fmt.Sprintf(".pmpt record %d differs from the one written", i)
		}
	}
}

// drainFiles times FileSource.Next over every file.
func drainFiles(files []*trace.FileSource, l *ioLayers) error {
	var n int
	start := time.Now()
	for _, f := range files {
		f.Reset()
		for {
			if _, ok := f.Next(); !ok {
				break
			}
			n++
		}
		f.Reset()
	}
	if n == 0 {
		return fmt.Errorf("drain: no records")
	}
	l.fileNS = 1e9 * since(start) / float64(n)
	return nil
}

// traceIO measures the trace-I/O layers on a workload whose inputs do
// not pass through them: the first limit records of each trace are
// encoded as ChampSim, converted, written as .pmpt and drained.
func traceIO(e env, trs []*trace.Trace, limit int) (ioLayers, error) {
	names := make([]string, len(trs))
	raw := make([]string, len(trs))
	var recs [][]trace.Record
	for i, tr := range trs {
		names[i] = tr.Name()
		r := tr.Records()
		if len(r) > limit {
			r = r[:limit]
		}
		r = champsimForm(r)
		recs = append(recs, r)
		raw[i] = filepath.Join(e.work, fmt.Sprintf("probe%02d.champsim", i))
		if _, err := encodeChampSim(raw[i], r); err != nil {
			return ioLayers{}, fmt.Errorf("%s: encode: %w", names[i], err)
		}
	}
	files, l, err := convertAll(raw, names, e.work)
	if err != nil {
		return l, err
	}
	defer closeAll(files)
	for i := range files {
		if at := sameRecords(recs[i], l.converted[i]); at >= 0 {
			return l, fmt.Errorf("%s: ChampSim decode differs from the encoded records at %d", names[i], at)
		}
		if w := verifyFile(files[i], recs[i]); w != "" {
			return l, fmt.Errorf("%s: %s", names[i], w)
		}
	}
	l.converted = nil
	for _, p := range raw {
		os.Remove(p)
	}
	return l, drainFiles(files, &l)
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// simTraced is the traced run of a sim workload: untraced passes for
// the overhead baseline, then passes under the timing decorator and a
// CPU profile.
func simTraced(e env, inputs []simInput, cfg sim.Config, pf string, io ioLayers) (outcome, error) {
	hp := newHostProbe() // samples both halves, so it biases neither
	half := e.seconds / 2
	plain := runPasses(inputs, cfg, pf, half, hooks{probe: hp})

	prof := filepath.Join(e.work, "cpu.pprof")
	stop, err := cpuProfile(prof)
	if err != nil {
		return outcome{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	c := &pfCounters{}
	var build time.Duration
	start := time.Now()
	ps := runPasses(inputs, cfg, pf, half, hooks{pf: c, build: &build, probe: hp})
	wall := since(start)
	gc := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	probe := hp.finish()
	if err := stop(); err != nil {
		return outcome{}, err
	}
	summary, err := summarizeProfile(prof)
	if err != nil {
		return outcome{}, err
	}

	out := simOutcome(append(plain, ps...), inputs, cfg)
	tracedE2E := simEndToEnd(ps)
	plainE2E := simEndToEnd(plain)

	m := metrics{}
	var acc uint64
	var jobs int
	var busy float64
	var results []sim.Result
	for _, p := range ps {
		acc += p.acc
		jobs += len(p.results)
		busy += p.wall
		results = append(results, p.results...)
	}
	setResultLayers(m, results)
	setCoreLayers(m, c, acc)
	m.set("sim.build_ms", "ms", 1e3*build.Seconds()/float64(jobs))
	setProfileLayers(m, summary)
	out.notes = append(out.notes, "CPU profile of the traced passes:\n"+summary.top)
	m.set("runtime.gc_cpu_s", "s", gc)
	m.set("runtime.alloc_bytes_per_acc", "B/acc", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(acc))
	m.set("sweep.pool_busy_ratio", "ratio", busy/wall)
	m.set("sweep.jobs_run", "jobs", float64(jobs))
	appendUS, err := storeAppendUS(e, resultRecords(results))
	if err != nil {
		return outcome{}, err
	}
	m.set("sweep.store_append_us", "us", appendUS)
	setIOLayers(m, io)
	rm, err := remoteProbe(e)
	if err != nil {
		return outcome{}, err
	}
	for k, v := range rm {
		m[k] = v
	}
	m.set("host.mem_probe_ns", "ns/access", probe)
	m.set("tracing.overhead_ratio", "ratio", tracedE2E["sim_acc_per_s"].Value/plainE2E["sim_acc_per_s"].Value)
	out.metrics = m
	return out, nil
}

// setResultLayers sets the per-access ratios taken from Results.
func setResultLayers(m metrics, rs []sim.Result) {
	var acc, dropMSH, dropPQ, issued, fills, dram uint64
	for _, r := range rs {
		acc += r.L1D.DemandAccesses
		dropMSH += r.PF.DroppedMSH
		dropPQ += r.PF.DroppedPQ
		issued += r.PF.Total()
		fills += demandFills(r) + r.L1D.PrefetchFills + r.L2C.PrefetchFills + r.LLC.PrefetchFills
		dram += r.DRAM.Requests
	}
	per := func(n uint64) float64 { return float64(n) / float64(acc) }
	m.set("sim.admit_fail_per_acc", "1/acc", per(dropMSH))
	m.set("sim.redundant_per_acc", "1/acc", per(dropPQ))
	m.set("sim.pf_issued_per_acc", "1/acc", per(issued))
	m.set("cache.fills_per_acc", "1/acc", per(fills))
	m.set("dram.requests_per_acc", "1/acc", per(dram))
}

// demandFills counts the demand fills of a single-core run: a level
// fills once per demand request it sends outward, which is the next
// level's demand accesses (DRAM's demand requests past the LLC).
func demandFills(r sim.Result) uint64 {
	if r.L2C.DemandAccesses == 0 { // two-level hierarchy
		return r.LLC.DemandAccesses + r.DRAM.DemandRequests
	}
	return r.L2C.DemandAccesses + r.LLC.DemandAccesses + r.DRAM.DemandRequests
}

// setCoreLayers sets the prefetcher-call metrics of the decorator.
func setCoreLayers(m metrics, c *pfCounters, acc uint64) {
	perCall := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	m.set("core.train_ns", "ns/call", perCall(c.trainNS, c.trains))
	m.set("core.issue_ns", "ns/call", perCall(c.issueNS, c.issues))
	m.set("core.drained_per_acc", "req/acc", float64(c.drained)/float64(acc))
	ratio := 0.0
	if c.drained > 0 {
		ratio = float64(c.requeued) / float64(c.drained)
	}
	m.set("core.requeue_ratio", "ratio", ratio)
}

func setProfileLayers(m metrics, p profileSummary) {
	for _, l := range profileLayers {
		m.set(l.metric, "s", p.layer(l.packages).Seconds())
	}
}

func setIOLayers(m metrics, l ioLayers) {
	m.set("trace.gen_ns_per_rec", "ns/rec", l.genNS)
	m.set("trace.file_ns_per_rec", "ns/rec", l.fileNS)
	m.set("trace.pmpt_write_mb_per_s", "MB/s", l.writeMBps)
	m.set("champsim.decode_mb_per_s", "MB/s", l.decodeMB)
}

// resultRecords wraps Results as store records, as a sweep would.
func resultRecords(rs []sim.Result) []sweep.Record {
	recs := make([]sweep.Record, len(rs))
	for i, r := range rs {
		recs[i] = sweep.Record{ID: fmt.Sprintf("%06d", i), Label: r.Prefetcher + "/" + r.Trace,
			Prefetcher: r.Prefetcher, Trace: r.Trace, Status: "ok", Attempts: 1, Result: r}
	}
	return recs
}

// storeAppendUS replays records into a fresh store and returns the
// median Store.Append time in microseconds.
func storeAppendUS(e env, recs []sweep.Record) (float64, error) {
	st, err := sweep.OpenStore(filepath.Join(e.work, "replay", "store.jsonl"), false)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	times := make([]float64, 0, len(recs))
	for _, r := range recs {
		start := time.Now()
		if err := st.Append(r); err != nil {
			return 0, err
		}
		times = append(times, 1e6*since(start))
	}
	return median(times), st.Close()
}
