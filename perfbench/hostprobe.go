package main

import (
	"fmt"
	"time"
)

// The host's speed drifts by tens of percent within minutes with the
// load other tenants put on the machine, far more than the difference a
// change to the simulator should be judged by. A probe of the host's
// memory speed, taken on the simulating thread between simulations,
// follows that drift: over 5–15 s windows its median correlates with
// the simulator's speed at 0.8–0.9 on this host. The time metrics are
// therefore reported at a reference probe speed, scaled by
// probe/probeRefNS. The raw figures and the probe median are printed on
// standard error.
const (
	probeWords = 32 << 20 / 8 // a 32 MiB table, larger than the host's caches
	probeSteps = 1 << 17      // about 2 ms of independent random loads
	// probeEvery spaces the samples of a background probe, which runs
	// while a child process simulates.
	probeEvery = 50 * time.Millisecond
	probeDelay = 100 * time.Millisecond
	// probeRefNS is the probe speed the normalized figures are
	// expressed at, about this host's median with a workload running.
	probeRefNS = 20.0
)

// hostProbe samples the host's memory speed: inline, between the
// simulations of the calling goroutine, or in the background while a
// child process simulates.
type hostProbe struct {
	buf        []uint64
	x          uint64
	samples    []float64 // ns per access
	stop, done chan struct{}
}

func newHostProbe() *hostProbe {
	h := &hostProbe{}
	h.init()
	return h
}

// init writes the table, so its pages are the probe's own and not the
// shared zero page.
func (h *hostProbe) init() {
	h.buf, h.x = make([]uint64, probeWords), 88172645463325252
	for i := range h.buf {
		h.buf[i] = uint64(i)
	}
}

// sample times probeSteps xorshift-indexed loads from the table.
func (h *hostProbe) sample() {
	var sum uint64
	v := h.x
	start := time.Now()
	for i := 0; i < probeSteps; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		sum += h.buf[v%probeWords]
	}
	h.samples = append(h.samples, float64(time.Since(start).Nanoseconds())/probeSteps)
	h.x = v ^ sum&1 // keeps the loads live
}

// backgroundProbe samples every probeEvery until finish, starting once
// probeDelay has passed. Call it after the child process has started:
// a child's peak resident set counts its parent's at exec, and the
// delay keeps the probe's table writes out of the child's start-up.
func backgroundProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		select {
		case <-time.After(probeDelay):
		case <-h.stop:
			return
		}
		h.init()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops background sampling, if any, and returns the median ns
// per access.
func (h *hostProbe) finish() float64 {
	if h.stop != nil {
		close(h.stop)
		<-h.done
		h.stop = nil
	}
	return median(h.samples)
}

// normalize scales the time metrics of m to the reference probe speed
// and returns a note with the raw figures. Without a probe sample (a
// run shorter than probeDelay) the metrics stay raw.
func normalize(m metrics, probeNS float64) string {
	if probeNS <= 0 {
		return "host probe: no sample; the time metrics are raw"
	}
	f := probeNS / probeRefNS
	note := fmt.Sprintf("host probe %.2f ns/access (reference %.0f); raw: sim_acc_per_s %.0f, sweep_jobs_per_s %.4g, job_p50_ms %.4g, job_p98_ms %.4g",
		probeNS, probeRefNS, m.metric("sim_acc_per_s"), m.metric("sweep_jobs_per_s"), m.metric("job_p50_ms"), m.metric("job_p98_ms"))
	for _, name := range []string{"sim_acc_per_s", "sweep_jobs_per_s"} {
		m.set(name, m[name].Unit, m.metric(name)*f)
	}
	for _, name := range []string{"job_p50_ms", "job_p98_ms"} {
		m.set(name, m[name].Unit, m.metric(name)/f)
	}
	return note
}
