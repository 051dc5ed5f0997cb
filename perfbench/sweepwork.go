package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pmp/internal/bench"
	"pmp/internal/sim"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
)

// probeExperiment is the small experiment the traced runs of the other
// workloads push through pmpsweepd to measure the remote layer.
const probeExperiment = "PLC"

// sweepRun is what one sweep leaves behind.
type sweepRun struct {
	setup   float64 // seconds from launch to the first job
	wall    float64 // sweep wall seconds
	rssMiB  float64 // peak resident set of the simulating process
	records map[string]sweep.Record
	stdout  string
	canon   string  // sha256 of the canonical store
	probeNS float64 // host probe median while the sweep ran
	remote  remoteLayers
}

type remoteLayers struct {
	leaseMS, reportMS float64
	polls, empty      int
}

// jobResults returns the per-core results of a record.
func jobResults(r sweep.Record) []sim.Result {
	if len(r.Results) > 0 {
		return r.Results
	}
	return []sim.Result{r.Result}
}

// checkSweep checks every record and that every experiment rendered
// its table. It returns the failed checks and the jobs that break the
// prefetch-outcome law (the known warm-up accounting fault).
func checkSweep(run sweepRun, ids []string) (wrong []string, failed int) {
	for _, id := range sortedIDs(run.records) {
		rec := run.records[id]
		if rec.Status != sweep.StatusOK {
			wrong = append(wrong, fmt.Sprintf("job %s resolved %s: %s", rec.Label, rec.Status, rec.Err))
			continue
		}
		rs := jobResults(rec)
		if err := checkLaws(rs); err != nil {
			wrong = append(wrong, fmt.Sprintf("job %s: %v", rec.Label, err))
		}
		for _, r := range rs {
			if outcomeLawBroken(r) {
				failed++
				break
			}
		}
	}
	for _, id := range ids {
		if !strings.Contains(run.stdout, "-- "+id+" completed in ") {
			wrong = append(wrong, "experiment "+id+" rendered no table")
		}
	}
	return wrong, failed
}

func sortedIDs(m map[string]sweep.Record) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// experimentIDs asks pmpexperiments for its experiment list.
func experimentIDs(e env) ([]string, error) {
	out, err := exec.Command(filepath.Join(e.bin, "pmpexperiments"), "-scale", "quick", "-list").Output()
	if err != nil {
		return nil, fmt.Errorf("pmpexperiments -list: %w", err)
	}
	var ids []string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids = append(ids, f[0])
		}
	}
	return ids, nil
}

// sweepEndToEnd computes the end-to-end metrics of one sweep.
func sweepEndToEnd(run sweepRun) metrics {
	m := metrics{}
	var acc uint64
	var busy float64
	var jobs []float64
	for _, rec := range run.records {
		for _, r := range jobResults(rec) {
			acc += r.L1D.DemandAccesses
		}
		s := float64(rec.WallNS) / 1e9
		busy += s
		jobs = append(jobs, s)
	}
	m.set("sim_acc_per_s", "acc/s", float64(acc)/busy)
	m.set("setup_s", "s", run.setup)
	m.set("peak_rss_mb", "MiB", run.rssMiB)
	m.set("sweep_jobs_per_s", "jobs/s", float64(len(run.records))/run.wall)
	setJobTimes(m, jobs)
	return m
}

// canonicalSHA hashes the canonical resolution of a store.
func canonicalSHA(store string) (string, error) {
	h := sha256.New()
	if err := sweep.WriteCanonical(h, store); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func readSweep(run *sweepRun, store string) error {
	recs, skipped, err := sweep.ReadRecords(store)
	if err != nil {
		return err
	}
	if skipped > 0 {
		return fmt.Errorf("store %s: %d malformed lines", store, skipped)
	}
	run.records = recs
	run.canon, err = canonicalSHA(store)
	return err
}

// localSweep runs `pmpexperiments -scale quick -workers 1` with a
// store. extra adds flags (a CPU profile in the traced run).
func localSweep(e env, dir string, extra ...string) (sweepRun, error) {
	var run sweepRun
	store := filepath.Join(dir, "store.jsonl")
	args := append([]string{"-scale", "quick", "-workers", "1", "-store", store, "-progress=false"}, extra...)
	cmd := exec.Command(filepath.Join(e.bin, "pmpexperiments"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	launch := time.Now()
	if err := cmd.Start(); err != nil {
		return run, fmt.Errorf("pmpexperiments: %w", err)
	}
	hp := backgroundProbe()
	err := cmd.Wait()
	run.probeNS = hp.finish()
	if err != nil {
		return run, fmt.Errorf("pmpexperiments: %w: %s", err, tail(stderr.String()))
	}
	run.stdout = stdout.String()
	run.rssMiB = peakRSSMiB(cmd.ProcessState.SysUsage().(*syscall.Rusage))
	var man sweep.Manifest
	b, err := os.ReadFile(strings.TrimSuffix(store, ".jsonl") + ".manifest.json")
	if err != nil {
		return run, err
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return run, err
	}
	run.setup = man.StartedAt.Sub(launch).Seconds()
	run.wall = man.WallSeconds
	if err := readSweep(&run, store); err != nil {
		return run, err
	}
	if man.Completed != len(run.records) {
		return run, fmt.Errorf("manifest counts %d completed jobs, the store holds %d", man.Completed, len(run.records))
	}
	return run, nil
}

func tail(s string) string {
	if len(s) > 2000 {
		return s[len(s)-2000:]
	}
	return s
}

// canonCache names the file in which runs of one build share the
// canonical store of a local quick sweep, keyed by the binaries.
func canonCache(e env) (string, error) {
	h := sha256.New()
	for _, name := range []string{"pmpexperiments", "pmpsweepd"} {
		f, err := os.Open(filepath.Join(e.bin, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return filepath.Join(e.cache, "canon-"+hex.EncodeToString(h.Sum(nil))[:16]), nil
}

// sweepQuick: the quick-scale pmpexperiments sweep on one worker.
func sweepQuick(e env) (outcome, error) {
	ids, err := experimentIDs(e)
	if err != nil {
		return outcome{}, err
	}
	run, err := localSweep(e, filepath.Join(e.work, "local"))
	if err != nil {
		return outcome{}, err
	}
	out := sweepOutcome(run, ids)
	cache, err := canonCache(e)
	if err != nil {
		return outcome{}, err
	}
	if prev, err := os.ReadFile(cache); err == nil && string(prev) != run.canon {
		out.wrong = append(out.wrong, "canonical store differs from an earlier run of the same build")
	}
	if err := os.WriteFile(cache, []byte(run.canon), 0o644); err != nil {
		return outcome{}, err
	}
	if !e.traced {
		out.notes = append(out.notes, normalize(out.metrics, run.probeNS))
		return out, nil
	}
	prof, mem := filepath.Join(e.work, "cpu.pprof"), filepath.Join(e.work, "mem.pprof")
	traced, err := localSweep(e, filepath.Join(e.work, "traced"), "-cpuprofile", prof, "-memprofile", mem)
	if err != nil {
		return outcome{}, err
	}
	summary, err := summarizeProfile(prof)
	if err != nil {
		return outcome{}, err
	}
	alloc, err := allocBytes(mem)
	if err != nil {
		return outcome{}, err
	}
	out.notes = append(out.notes, "CPU profile of the traced sweep:\n"+summary.top)
	m, err := sweepLayers(e, traced, summary, summary.gc.Seconds(), alloc)
	if err != nil {
		return outcome{}, err
	}
	rm, err := remoteProbe(e)
	if err != nil {
		return outcome{}, err
	}
	for k, v := range rm {
		m[k] = v
	}
	m.set("tracing.overhead_ratio", "ratio",
		sweepEndToEnd(traced).metric("sim_acc_per_s")/out.metrics.metric("sim_acc_per_s"))
	out.metrics = m
	return out, nil
}

func (m metrics) metric(name string) float64 { return m[name].Value }

// sweepOutcome checks a sweep and assembles its end-to-end outcome.
func sweepOutcome(run sweepRun, ids []string) outcome {
	wrong, failed := checkSweep(run, ids)
	out := outcome{attempted: len(run.records), failed: failed, metrics: sweepEndToEnd(run),
		digest: run.canon, wrong: wrong}
	out.notes = append(out.notes, jobNote(len(run.records)),
		fmt.Sprintf("failed: %d of %d jobs break useful+useless <= prefetch fills (warm-up prefetch outcomes counted in the measured window)",
			failed, len(run.records)))
	return out
}

// allocBytes reads the total allocated bytes from a heap profile.
func allocBytes(path string) (float64, error) {
	out, err := pprofText("-sample_index=alloc_space", "-top", "-nodecount=1", path)
	if err != nil {
		return 0, err
	}
	return parseTotal(out)
}

// parseTotal reads "of 1.25GB total" from a pprof -top header.
func parseTotal(s string) (float64, error) {
	i := strings.Index(s, " total")
	j := strings.LastIndex(s[:max(i, 0)], "of ")
	if i < 0 || j < 0 {
		return 0, fmt.Errorf("pprof: no total in %q", tail(s))
	}
	v := strings.TrimSpace(s[j+3 : i])
	units := []struct {
		suffix string
		scale  float64
	}{{"TB", 1e12}, {"GB", 1e9}, {"MB", 1e6}, {"kB", 1e3}, {"B", 1}}
	for _, u := range units {
		if strings.HasSuffix(v, u.suffix) {
			var f float64
			if _, err := fmt.Sscanf(strings.TrimSuffix(v, u.suffix), "%g", &f); err != nil {
				return 0, fmt.Errorf("pprof total %q: %w", v, err)
			}
			return f * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof total %q: unknown unit", v)
}

// sweepLayers sets the per-layer metrics of a traced sweep: ratios from
// its results, self times from its profile, the store replay, and the
// per-call prefetcher and trace-I/O layers from an in-process probe of
// the quick-scale mix (those calls happen inside the sweep's process).
func sweepLayers(e env, run sweepRun, p profileSummary, gc, alloc float64) (metrics, error) {
	m := metrics{}
	var rs []sim.Result
	var recs []sweep.Record
	var busy float64
	for _, id := range sortedIDs(run.records) {
		rec := run.records[id]
		recs = append(recs, rec)
		busy += float64(rec.WallNS) / 1e9
		for i, r := range jobResults(rec) {
			if i > 0 {
				r.DRAM = sim.Result{}.DRAM // shared: count it once per job
			}
			rs = append(rs, r)
		}
	}
	setResultLayers(m, rs)
	var acc uint64
	for _, r := range rs {
		acc += r.L1D.DemandAccesses
	}
	setProfileLayers(m, p)
	m.set("runtime.gc_cpu_s", "s", gc)
	m.set("runtime.alloc_bytes_per_acc", "B/acc", alloc/float64(acc))
	m.set("sweep.pool_busy_ratio", "ratio", busy/run.wall)
	m.set("sweep.jobs_run", "jobs", float64(len(run.records)))
	us, err := storeAppendUS(e, recs)
	if err != nil {
		return nil, err
	}
	m.set("sweep.store_append_us", "us", us)

	// In-process probe of the quick-scale mix.
	sc := bench.QuickScale()
	start := time.Now()
	trs, err := materialize(specNames(sc.Specs()), e.seed, sc.Records)
	if err != nil {
		return nil, err
	}
	genNS := 1e9 * since(start) / float64(len(trs)*sc.Records)
	io, err := traceIO(e, trs, ioProbeRecords)
	if err != nil {
		return nil, err
	}
	io.genNS = genNS
	setIOLayers(m, io)
	inputs := make([]simInput, len(trs))
	for i, tr := range trs {
		inputs[i] = simInput{recs: tr.Records(), src: tr}
	}
	c := &pfCounters{}
	var build time.Duration
	ps := runPasses(inputs, sc.Config(), bench.NamePMP, 0, hooks{pf: c, build: &build})
	var pacc uint64
	for _, p := range ps {
		pacc += p.acc
	}
	setCoreLayers(m, c, pacc)
	m.set("sim.build_ms", "ms", 1e3*build.Seconds()/float64(len(ps)*len(inputs)))
	m.set("host.mem_probe_ns", "ns/access", run.probeNS)
	return m, nil
}

// sweepRemote: the quick sweep through a pmpsweepd coordinator and one
// worker with -parallel 1, driven by pmpexperiments -remote.
func sweepRemote(e env) (outcome, error) {
	ids, err := experimentIDs(e)
	if err != nil {
		return outcome{}, err
	}
	run, err := remoteSweep(e, filepath.Join(e.work, "remote"), remoteOpts{})
	if err != nil {
		return outcome{}, err
	}
	out := sweepOutcome(run, ids)
	cache, err := canonCache(e)
	if err != nil {
		return outcome{}, err
	}
	want, err := os.ReadFile(cache)
	if err != nil {
		local, err := localSweep(e, filepath.Join(e.work, "local"))
		if err != nil {
			return outcome{}, err
		}
		want = []byte(local.canon)
		if err := os.WriteFile(cache, want, 0o644); err != nil {
			return outcome{}, err
		}
	}
	if string(want) != run.canon {
		out.wrong = append(out.wrong, "canonical store of the distributed sweep differs from a local sweep's")
	}
	if !e.traced {
		out.notes = append(out.notes, normalize(out.metrics, run.probeNS))
		return out, nil
	}
	prof := filepath.Join(e.work, "cpu.pprof")
	stop, err := cpuProfile(prof)
	if err != nil {
		return outcome{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	traced, err := remoteSweep(e, filepath.Join(e.work, "traced"), remoteOpts{proxy: true, inProcess: true})
	gc := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return outcome{}, err
	}
	summary, err := summarizeProfile(prof)
	if err != nil {
		return outcome{}, err
	}
	out.notes = append(out.notes, "CPU profile of the traced sweep (coordinator proxy and in-process worker):\n"+summary.top)
	m, err := sweepLayers(e, traced, summary, gc, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	if err != nil {
		return outcome{}, err
	}
	setRemoteLayers(m, traced)
	m.set("tracing.overhead_ratio", "ratio",
		sweepEndToEnd(traced).metric("sim_acc_per_s")/out.metrics.metric("sim_acc_per_s"))
	out.metrics = m
	return out, nil
}

type remoteOpts struct {
	exp       string // -exp filter; empty runs every experiment
	proxy     bool   // route the worker and the client through the timing proxy
	inProcess bool   // run the worker in this process, profiled
}

// remoteSweep starts a coordinator and one worker, runs the client to
// completion, stops the servers and reads the merged store.
func remoteSweep(e env, dir string, o remoteOpts) (sweepRun, error) {
	var run sweepRun
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return run, err
	}
	store := filepath.Join(dir, "store.jsonl")
	coordAddr, err := freeAddr()
	if err != nil {
		return run, err
	}
	var procs procList
	defer procs.stop()
	start := time.Now()
	coord, err := procs.start(e, "pmpsweepd", "-listen", coordAddr, "-store", store)
	if err != nil {
		return run, err
	}
	if err := waitStatus(coordAddr, 0); err != nil {
		return run, err
	}
	addr := coordAddr
	var px *timingProxy
	if o.proxy {
		if px, err = startProxy(coordAddr); err != nil {
			return run, err
		}
		defer px.close()
		addr = px.addr
	}
	var worker *exec.Cmd
	var stopWorker func() error
	if o.inProcess {
		stopWorker = inProcessWorker(addr)
		defer stopWorker()
	} else if worker, err = procs.start(e, "pmpsweepd", "-worker", "-connect", addr, "-parallel", "1", "-name", "w1"); err != nil {
		return run, err
	}
	if err := waitStatus(coordAddr, 1); err != nil {
		return run, err
	}
	run.setup = since(start)
	args := []string{"-scale", "quick", "-remote", addr, "-progress=false"}
	if o.exp != "" {
		args = append(args, "-exp", o.exp)
	}
	client := exec.Command(filepath.Join(e.bin, "pmpexperiments"), args...)
	var stdout, stderr bytes.Buffer
	client.Stdout, client.Stderr = &stdout, &stderr
	clientStart := time.Now()
	if err := client.Start(); err != nil {
		return run, fmt.Errorf("pmpexperiments -remote: %w", err)
	}
	hp := backgroundProbe()
	err = client.Wait()
	run.probeNS = hp.finish()
	if err != nil {
		return run, fmt.Errorf("pmpexperiments -remote: %w: %s", err, tail(stderr.String()))
	}
	run.wall = since(clientStart)
	run.stdout = stdout.String()
	if stopWorker != nil {
		if err := stopWorker(); err != nil {
			return run, err
		}
	} else {
		if err := procs.interrupt(worker); err != nil {
			return run, err
		}
		run.rssMiB = peakRSSMiB(worker.ProcessState.SysUsage().(*syscall.Rusage))
	}
	if err := procs.interrupt(coord); err != nil {
		return run, err
	}
	if px != nil {
		run.remote = px.layers()
	}
	return run, readSweep(&run, store)
}

// inProcessWorker runs a pmpsweepd worker in this process through the
// same public entry point the command uses; stop cancels it and waits
// for it to return, and may be called more than once.
func inProcessWorker(addr string) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- remote.RunWorker(ctx, remote.WorkerOptions{
			Coordinator: addr, Name: "w1", Parallel: 1, Build: bench.BuildJobRun,
			Logf: func(string, ...any) {},
		})
	}()
	var once sync.Once
	var err error
	return func() error {
		once.Do(func() {
			cancel()
			if err = <-done; ctx.Err() != nil {
				err = nil // canceled by stop, as intended
			}
		})
		return err
	}
}

// remoteProbe measures the remote layer for a workload that does not
// reach it: the probe experiment through a coordinator, one worker and
// the timing proxy.
func remoteProbe(e env) (metrics, error) {
	run, err := remoteSweep(e, filepath.Join(e.work, "probe"), remoteOpts{exp: probeExperiment, proxy: true})
	if err != nil {
		return nil, fmt.Errorf("remote probe: %w", err)
	}
	for _, rec := range run.records {
		if rec.Status != sweep.StatusOK {
			return nil, fmt.Errorf("remote probe: job %s resolved %s", rec.Label, rec.Status)
		}
	}
	m := metrics{}
	setRemoteLayers(m, run)
	return m, nil
}

func setRemoteLayers(m metrics, run sweepRun) {
	var busy float64
	for _, rec := range run.records {
		busy += float64(rec.WallNS) / 1e9
	}
	m.set("remote.lease_ms", "ms", run.remote.leaseMS)
	m.set("remote.report_ms", "ms", run.remote.reportMS)
	m.set("remote.results_polls", "count", float64(run.remote.polls))
	m.set("remote.empty_leases", "count", float64(run.remote.empty))
	m.set("remote.overhead_s", "s", run.wall-busy)
}

// freeAddr returns a localhost address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitStatus polls the coordinator's /status until it answers with at
// least workers registered workers.
func waitStatus(addr string, workers int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + remote.PathStatus)
		if err == nil {
			var st remote.Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && len(st.Workers) >= workers {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("coordinator %s: not ready with %d workers after 30s", addr, workers)
}

// procList owns the processes a run starts and stops them all.
type procList struct{ cmds []*exec.Cmd }

func (p *procList) start(e env, name string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p.cmds = append(p.cmds, cmd)
	return cmd, nil
}

// interrupt sends SIGINT and waits for the process to exit.
func (p *procList) interrupt(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not stop on SIGINT", cmd.Path)
	}
}

// stop kills whatever is still running and reaps it.
func (p *procList) stop() {
	for _, cmd := range p.cmds {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// timingProxy is a reverse proxy in front of the coordinator that
// times every endpoint and counts empty leases and result polls.
type timingProxy struct {
	addr  string
	srv   *http.Server
	mu    sync.Mutex
	times map[string][]float64 // path -> round trips, ms
	empty int
}

func startProxy(target string) (*timingProxy, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	px := &timingProxy{addr: ln.Addr().String(), times: map[string][]float64{}}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != remote.PathLease || resp.StatusCode != http.StatusOK {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr remote.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && len(lr.Jobs) == 0 {
			px.mu.Lock()
			px.empty++
			px.mu.Unlock()
		}
		return nil
	}
	px.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rp.ServeHTTP(w, r)
		ms := 1e3 * since(start)
		px.mu.Lock()
		px.times[r.URL.Path] = append(px.times[r.URL.Path], ms)
		px.mu.Unlock()
	})}
	go px.srv.Serve(ln)
	return px, nil
}

func (px *timingProxy) close() { px.srv.Close() }

func (px *timingProxy) layers() remoteLayers {
	px.mu.Lock()
	defer px.mu.Unlock()
	return remoteLayers{
		leaseMS:  median(px.times[remote.PathLease]),
		reportMS: median(px.times[remote.PathReport]),
		polls:    len(px.times[remote.PathResults]),
		empty:    px.empty,
	}
}
