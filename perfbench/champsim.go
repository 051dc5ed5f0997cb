package main

import (
	"bufio"
	"fmt"
	"os"

	"pmp/internal/trace"
	"pmp/internal/trace/champsim"
)

// Register plan of the encoder. Every load writes lastLoadReg, so a
// DepPrev load reads it; every static load (PC) also writes a register
// of its own, so a DepChain load reads the one its PC last wrote.
const (
	lastLoadReg = 1
	firstPCReg  = 2
	maxPCRegs   = 255 - firstPCReg + 1
)

// champsimForm returns recs as the ChampSim format can carry them.
// The decoder infers dependencies from registers, and a producer of
// the same PC always reads as a chain: a DepPrev load right after a
// load of its own PC becomes DepChain, and a load with no producer
// (DepPrev first, or DepChain with no earlier load of its PC) becomes
// DepNone. Address 0 marks an unused operand
// slot, so a load of address 0 moves to address 8, in the same line.
// recs is not modified.
func champsimForm(recs []trace.Record) []trace.Record {
	out := append([]trace.Record(nil), recs...)
	seen := map[uint64]bool{}
	for i := range out {
		r := &out[i]
		if r.Addr == 0 {
			r.Addr = 8
		}
		switch {
		case r.Dep == trace.DepPrev && i == 0:
			r.Dep = trace.DepNone
		case r.Dep == trace.DepPrev && out[i-1].PC == r.PC:
			r.Dep = trace.DepChain
		case r.Dep == trace.DepChain && !seen[r.PC]:
			r.Dep = trace.DepNone
		}
		seen[r.PC] = true
	}
	return out
}

// encodeChampSim writes recs, which must be in champsimForm, as a raw
// ChampSim instruction stream: each record becomes Gap non-memory
// instructions followed by one load whose source registers carry its
// dependency. It returns the bytes written. Address 0 (an unused
// operand slot) and more static loads than registers have no encoding
// and are reported as errors.
func encodeChampSim(path string, recs []trace.Record) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	pcReg := map[uint64]uint8{}
	var buf []byte
	var n int64
	for i, r := range recs {
		reg, ok := pcReg[r.PC]
		if !ok {
			if len(pcReg) >= maxPCRegs {
				return n, fmt.Errorf("record %d: more than %d static loads", i, maxPCRegs)
			}
			reg = uint8(firstPCReg + len(pcReg))
			pcReg[r.PC] = reg
		}
		if r.Addr == 0 {
			return n, fmt.Errorf("record %d: address 0 has no ChampSim encoding", i)
		}
		buf = buf[:0]
		filler := champsim.Instr{IP: r.PC - 4}
		for g := 0; g < int(r.Gap); g++ {
			buf = champsim.AppendInstr(buf, filler)
		}
		load := champsim.Instr{IP: r.PC}
		load.DestRegs = [champsim.NumDestRegs]uint8{lastLoadReg, reg}
		load.SrcMem[0] = uint64(r.Addr)
		switch r.Dep {
		case trace.DepPrev:
			load.SrcRegs[0] = lastLoadReg
		case trace.DepChain:
			load.SrcRegs[0] = reg
		}
		buf = champsim.AppendInstr(buf, load)
		if _, err := w.Write(buf); err != nil {
			return n, err
		}
		n += int64(len(buf))
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}

// sameRecords reports the first index where two record sequences
// differ (PC, address, gap or dependency), or -1 when they are equal.
func sameRecords(a, b []trace.Record) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) != len(a) {
		return len(a)
	}
	return -1
}
