package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// profileLayers maps each per-layer self-time metric to the package
// path prefixes whose self time it sums. A prefix matches the package
// itself and, when it ends in "/", everything below it.
var profileLayers = []struct {
	metric   string
	packages []string
}{
	{"sim.self_s", []string{"pmp/internal/sim"}},
	{"cache.self_s", []string{"pmp/internal/cache"}},
	{"cpu.self_s", []string{"pmp/internal/cpu"}},
	{"tlb.self_s", []string{"pmp/internal/tlb"}},
	{"dram.self_s", []string{"pmp/internal/dram"}},
	{"core.self_s", []string{"pmp/internal/core"}},
	{"sms.self_s", []string{"pmp/internal/sms"}},
	{"mem.self_s", []string{"pmp/internal/mem"}},
	{"prefetch.self_s", []string{"pmp/internal/prefetch", "pmp/internal/prefetch/"}},
	{"prefetchers.self_s", []string{"pmp/internal/prefetchers/"}},
	{"bench.self_s", []string{"pmp/internal/bench", "pmp/internal/runspec"}},
	{"trace.self_s", []string{"pmp/internal/trace", "pmp/internal/trace/"}},
}

// gcRoots are the runtime functions whose stacks are garbage-collector
// work: background marking, mark assists and background sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// profileSummary is what the benchmark takes from a CPU profile.
type profileSummary struct {
	selfByPackage map[string]time.Duration
	gc            time.Duration
	total         time.Duration
	top           string // `go tool pprof -top` of the hottest functions
}

// layer sums the self time of the packages one layer metric names.
func (p profileSummary) layer(packages []string) time.Duration {
	var d time.Duration
	for pkg, t := range p.selfByPackage {
		for _, want := range packages {
			if pkg == want || (strings.HasSuffix(want, "/") && strings.HasPrefix(pkg, want)) {
				d += t
				break
			}
		}
	}
	return d
}

// packageOf returns the import path of the package a pprof function
// name belongs to: "pmp/internal/cache.(*Cache).Lookup" gives
// "pmp/internal/cache", "runtime.mallocgc" gives "runtime".
func packageOf(fn string) string {
	fn = strings.TrimSuffix(strings.TrimSpace(fn), " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseTraces reads the output of `go tool pprof -traces`: blocks
// separated by dashed lines, each a sample value followed by the stack,
// leaf first. The leaf's package receives the block's self time.
func parseTraces(r io.Reader) (profileSummary, error) {
	p := profileSummary{selfByPackage: map[string]time.Duration{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var cur time.Duration
	inBlock, isGC := false, false
	flush := func() {
		if inBlock && isGC {
			p.gc += cur
		}
		inBlock, isGC = false, false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !inBlock {
			if !strings.HasPrefix(line, " ") {
				continue // header lines
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return p, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			cur, inBlock = d, true
			p.total += d
			p.selfByPackage[packageOf(strings.Join(fields[1:], " "))] += d
			isGC = isGCFrame(fields[1])
			continue
		}
		if isGCFrame(fields[0]) {
			isGC = true
		}
	}
	flush()
	return p, sc.Err()
}

func isGCFrame(fn string) bool {
	for _, root := range gcRoots {
		if fn == root {
			return true
		}
	}
	return false
}

// summarizeProfile runs `go tool pprof` on a CPU profile file.
func summarizeProfile(path string) (profileSummary, error) {
	out, err := pprofText("-traces", path)
	if err != nil {
		return profileSummary{}, err
	}
	p, err := parseTraces(strings.NewReader(out))
	if err != nil {
		return p, err
	}
	p.top, err = pprofText("-top", "-nodecount=15", path)
	return p, err
}

// pprofText runs `go tool pprof` with args and returns its output.
func pprofText(args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof"}, args...)...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

// cpuProfile profiles the calling process until stop is called.
func cpuProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
