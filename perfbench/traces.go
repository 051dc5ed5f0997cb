package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"pmp/internal/trace"
)

// seededSource builds the generator behind a suite trace name
// ("<family>.<kind>-<variant>") with the suite's per-variant parameters
// but a generator seed derived from the workload seed, so each seed
// gives a different input of the same shape. The parameter choices
// mirror the suite's own (internal/trace/suite.go); only the seed
// differs.
func seededSource(name string, seed int64, records int) (trace.Source, error) {
	dot, dash := strings.IndexByte(name, '.'), strings.LastIndexByte(name, '-')
	if dot < 0 || dash < dot {
		return nil, fmt.Errorf("trace name %q is not <family>.<kind>-<variant>", name)
	}
	kind := name[dot+1 : dash]
	variant, err := strconv.Atoi(name[dash+1:])
	if err != nil {
		return nil, fmt.Errorf("trace name %q: variant: %w", name, err)
	}
	s := deriveSeed(seed, name)
	switch kind {
	case "stream":
		p := trace.DefaultStreamParams()
		p.Streams = 2 + variant%4
		p.WorkingSet = uint64(16+16*(variant%4)) << 20
		return trace.NewStream(name, s, records, p), nil
	case "stride":
		p := trace.DefaultStrideParams()
		p.Strides = [][]int{{2, 3, 4}, {2, 5}, {3, 7}, {4}}[variant%4]
		p.Walkers = 2 + variant%3
		return trace.NewStride(name, s, records, p), nil
	case "mcf":
		p := trace.DefaultBackwardParams()
		p.LocalProb = []float64{0.25, 0.35, 0.45}[variant%3]
		return trace.NewBackward(name, s, records, p), nil
	case "graph":
		p := trace.DefaultGraphParams()
		p.RandomProb = []float64{0.12, 0.2, 0.3}[variant%3]
		p.MaxDegree = []int{32, 48, 64}[variant%3]
		return trace.NewGraph(name, s, records, p), nil
	case "chase":
		p := trace.DefaultPointerChaseParams()
		p.HotProb = []float64{0.4, 0.5, 0.6}[variant%3]
		return trace.NewPointerChase(name, s, records, p), nil
	case "mix":
		p := trace.DefaultMixedParams()
		p.PhaseLen = []int{4096, 8192, 16384}[variant%3]
		return trace.NewMixed(name, s, records, p), nil
	}
	return nil, fmt.Errorf("trace name %q: unknown kind %q", name, kind)
}

// deriveSeed mixes the workload seed with the trace name.
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() >> 1)
}

// materialize generates every trace of the mix into memory. It sizes
// each record slice up front, so set-up leaves no garbage whose
// collection timing would move the process's peak resident set.
func materialize(names []string, seed int64, records int) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, len(names))
	for i, n := range names {
		src, err := seededSource(n, seed, records)
		if err != nil {
			return nil, err
		}
		recs := make([]trace.Record, 0, records)
		src.Reset()
		for r, ok := src.Next(); ok; r, ok = src.Next() {
			recs = append(recs, r)
		}
		out[i] = trace.NewTrace(n, recs)
	}
	return out, nil
}
