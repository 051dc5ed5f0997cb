// Command perfbench is the repository's same-host benchmark. It runs
// one named workload for a given time, checks the simulator's outputs,
// and prints one JSON line: whether the outputs were correct, how many
// operations it attempted and how many failed, and its metrics (the
// end-to-end metrics, or with -trace 1 the per-layer ones). See
// README.md for the workloads, the metrics and the host's noise.
//
// Run it through run.sh, which builds it and the shipped commands:
//
//	bash perfbench/run.sh --workload sim-pmp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's numbers by name.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	metrics           metrics
	digest            string   // sha256 over every simulated Result
	notes             []string // printed to standard error
	wrong             []string // failed output checks; non-empty means incorrect
}

// env is what every workload needs from the command line and run.sh.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	bin     string // directory holding the built pmpexperiments and pmpsweepd
	work    string // scratch directory of this run, removed at exit
	cache   string // directory shared by the runs of one checkout
}

var workloads = map[string]func(env) (outcome, error){
	"sim-pmp":       simPMP,
	"champsim-nopf": champsimNoPF,
	"sweep-quick":   sweepQuick,
	"sweep-remote":  sweepRemote,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time; a run attempts whole rounds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	bin := flag.String("bin", "", "directory of the built pmpexperiments and pmpsweepd")
	out := flag.String("out", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *bin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%v), -bin, -seconds > 0 and -trace 0|1\n", names)
		os.Exit(2)
	}
	e := env{seed: *seed, seconds: *seconds, traced: *traced == 1, bin: *bin, cache: *out}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e.work, _ = filepath.Abs(work)
	e.bin, _ = filepath.Abs(e.bin)
	os.Setenv("TMPDIR", e.work)
	res, err := run(e)
	os.RemoveAll(e.work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Printf("digest sha256:%s (over every simulated result; not gated)\n", res.digest)
	for _, w := range res.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", w)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.wrong) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMiB converts a rusage Maxrss (KiB on Linux) to MiB.
func peakRSSMiB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// selfPeakRSSMiB is the peak resident set of this process.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return peakRSSMiB(&ru)
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
