package main

import (
	"time"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// pfCounters accumulates what the timing decorator sees across every
// prefetcher it wraps in one run.
type pfCounters struct {
	trains, trainNS   int64
	issues, issueNS   int64
	drained, requeued int64
}

// timed wraps a prefetcher and times Train and IssueInto (the drain of
// PMP's prefetch buffer). It forwards everything else unchanged.
type timed struct {
	inner prefetch.Prefetcher
	c     *pfCounters
}

// timedRequeuer is timed plus Requeue. The simulator picks its issue
// loop by whether the prefetcher is a prefetch.Requeuer, so the wrapper
// must have Requeue exactly when the inner prefetcher does.
type timedRequeuer struct {
	*timed
	rq prefetch.Requeuer
}

// wrapTimed returns p wrapped by the timing decorator.
func wrapTimed(p prefetch.Prefetcher, c *pfCounters) prefetch.Prefetcher {
	t := &timed{inner: p, c: c}
	if rq, ok := p.(prefetch.Requeuer); ok {
		return &timedRequeuer{timed: t, rq: rq}
	}
	return t
}

func (t *timed) Name() string { return t.inner.Name() }

func (t *timed) Train(a prefetch.Access) {
	start := time.Now()
	t.inner.Train(a)
	t.c.trainNS += int64(time.Since(start))
	t.c.trains++
}

func (t *timed) Issue(max int) []prefetch.Request {
	return t.IssueInto(nil, max)
}

func (t *timed) IssueInto(dst []prefetch.Request, max int) []prefetch.Request {
	start := time.Now()
	out := prefetch.IssueInto(t.inner, dst, max)
	t.c.issueNS += int64(time.Since(start))
	t.c.issues++
	t.c.drained += int64(len(out) - len(dst))
	return out
}

func (t *timed) OnEvict(line mem.Addr) { t.inner.OnEvict(line) }

func (t *timed) OnFill(line mem.Addr, level prefetch.Level, useful bool) {
	t.inner.OnFill(line, level, useful)
}

func (t *timed) StorageBits() int { return t.inner.StorageBits() }

func (t *timedRequeuer) Requeue(r prefetch.Request) {
	t.c.requeued++
	t.rq.Requeue(r)
}
