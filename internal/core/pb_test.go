package core

import (
	"testing"

	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

func levelsWith(n int, m map[int]prefetch.Level) []prefetch.Level {
	out := make([]prefetch.Level, n)
	for k, l := range m {
		out[k] = l
	}
	return out
}

func TestPBNearestFirstOrder(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	// Anchored order must be 1, 63, 2, 62, ...
	want := []int{1, 63, 2, 62, 3, 61}
	for i, k := range want {
		if pb.order[i] != k {
			t.Fatalf("order[%d] = %d, want %d (full prefix %v)", i, pb.order[i], k, pb.order[:6])
		}
	}
	if len(pb.order) != 63 {
		t.Errorf("order covers %d offsets, want 63", len(pb.order))
	}
}

func TestPBDrainAssemblesAddresses(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(4, region)
	// Trigger at offset 10 in region 3; anchored targets at k=1 (offset
	// 11) and k=63 (offset 9).
	pb.Insert(3, 10, levelsWith(64, map[int]prefetch.Level{
		1:  prefetch.LevelL1,
		63: prefetch.LevelL2,
	}))
	got := pb.Drain(10)
	if len(got) != 2 {
		t.Fatalf("drained %d requests, want 2", len(got))
	}
	wantAddr0 := region.LineAddr(3, 11)
	wantAddr1 := region.LineAddr(3, 9)
	if got[0].Addr != wantAddr0 || got[0].Level != prefetch.LevelL1 {
		t.Errorf("first request = %+v, want addr %#x L1D", got[0], uint64(wantAddr0))
	}
	if got[1].Addr != wantAddr1 || got[1].Level != prefetch.LevelL2 {
		t.Errorf("second request = %+v, want addr %#x L2C", got[1], uint64(wantAddr1))
	}
	// Entry fully drained; nothing more.
	if more := pb.Drain(10); len(more) != 0 {
		t.Errorf("drained extra requests: %v", more)
	}
}

func TestPBDrainRespectsMax(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{
		1: prefetch.LevelL1, 2: prefetch.LevelL1, 3: prefetch.LevelL1, 4: prefetch.LevelL1,
	}))
	if got := pb.Drain(2); len(got) != 2 {
		t.Fatalf("Drain(2) gave %d", len(got))
	}
	// Remaining targets drain later without repeats.
	rest := pb.Drain(10)
	if len(rest) != 2 {
		t.Fatalf("second drain gave %d, want 2", len(rest))
	}
	seen := map[mem.Addr]bool{}
	for _, r := range rest {
		if seen[r.Addr] {
			t.Errorf("duplicate issue of %#x", uint64(r.Addr))
		}
		seen[r.Addr] = true
	}
	if got := pb.Drain(10); len(got) != 0 {
		t.Error("third drain should be empty")
	}
}

func TestPBTouchResumesRegion(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 2: prefetch.LevelL1}))
	pb.Insert(2, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1, 2: prefetch.LevelL1}))
	// Region 2 is MRU: drains first.
	r := pb.Drain(1)
	if len(r) != 1 || mem.NewRegion(4096).ID(r[0].Addr) != 2 {
		t.Fatalf("MRU drain = %+v, want region 2", r)
	}
	// Touching region 1 resumes it ahead of region 2.
	if !pb.Touch(1) {
		t.Fatal("Touch(1) should find the entry")
	}
	r = pb.Drain(1)
	if len(r) != 1 || mem.NewRegion(4096).ID(r[0].Addr) != 1 {
		t.Fatalf("post-touch drain = %+v, want region 1", r)
	}
	if pb.Touch(99) {
		t.Error("Touch of absent region should return false")
	}
}

func TestPBReplacesLRU(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	l := levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1})
	pb.Insert(1, 0, l)
	pb.Insert(2, 0, l)
	pb.Insert(3, 0, l) // displaces region 1 (LRU)
	if pb.Touch(1) {
		t.Error("region 1 should have been displaced")
	}
	if !pb.Touch(2) || !pb.Touch(3) {
		t.Error("regions 2 and 3 should be present")
	}
}

func TestPBReinsertResetsIssued(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	l := levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1})
	pb.Insert(1, 0, l)
	if got := pb.Drain(10); len(got) != 1 {
		t.Fatal("first drain should issue one request")
	}
	// Re-inserting the same region re-arms its pattern.
	pb.Insert(1, 0, l)
	if got := pb.Drain(10); len(got) != 1 {
		t.Error("re-inserted pattern should issue again")
	}
}

func TestPBDrainZero(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Insert(1, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	if got := pb.Drain(0); got != nil {
		t.Errorf("Drain(0) = %v", got)
	}
}

func TestPBSmallRegions(t *testing.T) {
	region := mem.NewRegion(1024) // 16 lines
	pb := newPrefetchBuffer(2, region)
	if len(pb.order) != 15 {
		t.Fatalf("order length = %d, want 15", len(pb.order))
	}
	pb.Insert(5, 14, levelsWith(16, map[int]prefetch.Level{
		1: prefetch.LevelL1, // offset (14+1)%16 = 15
		2: prefetch.LevelL2, // offset 0 (wraps)
	}))
	got := pb.Drain(10)
	if len(got) != 2 {
		t.Fatalf("drained %d", len(got))
	}
	if got[0].Addr != region.LineAddr(5, 15) {
		t.Errorf("first = %#x, want offset 15", uint64(got[0].Addr))
	}
	if got[1].Addr != region.LineAddr(5, 0) {
		t.Errorf("second = %#x, want wrapped offset 0", uint64(got[1].Addr))
	}
}

func TestPBRequeueReissues(t *testing.T) {
	pb := newPrefetchBuffer(4, mem.NewRegion(4096))
	pb.Insert(7, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	got := pb.Drain(10)
	if len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	if more := pb.Drain(10); len(more) != 0 {
		t.Fatal("entry should be exhausted")
	}
	// The system hands the request back: it must re-issue.
	pb.Requeue(7, 1)
	again := pb.Drain(10)
	if len(again) != 1 || again[0].Addr != got[0].Addr {
		t.Fatalf("requeue did not re-arm the target: %v", again)
	}
}

func TestPBRequeueUnknownRegionDropped(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Requeue(99, 1) // must not panic
	if got := pb.Drain(10); len(got) != 0 {
		t.Errorf("unexpected requests %v", got)
	}
}

func TestPBRequeueNeverIssuedIsNoop(t *testing.T) {
	pb := newPrefetchBuffer(2, mem.NewRegion(4096))
	pb.Insert(7, 0, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	pb.Requeue(7, 1) // not yet issued: pending count must not inflate
	if got := pb.Drain(10); len(got) != 1 {
		t.Errorf("drained %d, want exactly 1", len(got))
	}
}

func TestPBCrossRegionDrainAndRequeue(t *testing.T) {
	region := mem.NewRegion(4096)
	pb := newPrefetchBuffer(2, region)
	pb.crossRegion = true
	// Trigger at offset 63: anchored k=1 wraps; with projection it
	// targets region+1 offset 0.
	pb.Insert(5, 63, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL1}))
	got := pb.Drain(10)
	if len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	want := region.LineAddr(6, 0)
	if got[0].Addr != want {
		t.Fatalf("target %#x, want %#x (projected)", uint64(got[0].Addr), uint64(want))
	}
	// Requeue with the projected coordinates finds the entry of region 5.
	pb.Requeue(6, 0)
	again := pb.Drain(10)
	if len(again) != 1 || again[0].Addr != want {
		t.Fatalf("cross-region requeue failed: %v", again)
	}
}

// TestPBCrossRegionRequeueFindsIssuingEntry requeues a target that
// region 5's entry projected into region 6 while region 6 has an entry
// of its own. The target must go back to the entry that issued it, not
// be taken for one of region 6's own offsets and lost.
func TestPBCrossRegionRequeueFindsIssuingEntry(t *testing.T) {
	region := mem.NewRegion(4096)
	projected := region.LineAddr(6, 6) // region 5, trigger 60, k = 10
	pb := newPrefetchBuffer(4, region)
	pb.crossRegion = true
	pb.Insert(5, 60, levelsWith(64, map[int]prefetch.Level{10: prefetch.LevelL1}))
	pb.Insert(6, 3, levelsWith(64, map[int]prefetch.Level{1: prefetch.LevelL2}))
	got := pb.Drain(10)
	if len(got) != 2 {
		t.Fatalf("drained %v, want two requests", got)
	}
	want := prefetch.Request{Addr: projected, Level: prefetch.LevelL1}
	if got[0] != want && got[1] != want {
		t.Fatalf("drained %v, want the projected target %v among them", got, want)
	}
	pb.Requeue(6, 6)
	if again := pb.Drain(10); len(again) != 1 || again[0] != want {
		t.Errorf("after requeue drained %v, want [%v]", again, want)
	}
}
