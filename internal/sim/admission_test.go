package sim

import (
	"hash/fnv"
	"testing"

	"pmp/internal/core"
	"pmp/internal/prefetch"
)

// requeueRecorder hands PMP's requests through unchanged and records,
// in order, every request the simulator gives back.
type requeueRecorder struct {
	*core.PMP
	requeued []prefetch.Request
}

func (r *requeueRecorder) Requeue(req prefetch.Request) {
	r.requeued = append(r.requeued, req)
	r.PMP.Requeue(req)
}

// TestAdmissionOrderPinned pins the prefetch-buffer admission order
// under a saturated L1D MSHR file: with six MSHRs, of which a prefetch
// may take at most five, the stream's demand misses keep the file
// nearly full, so almost every L1D-targeted request bounces and is
// requeued, while redundant requests (line present or in flight) are
// dropped before the room check. The counts and the ordered requeue
// sequence change if the drain, the redundancy probes or the room check
// are reordered, which is exactly what an admission-aware drain would
// do.
func TestAdmissionOrderPinned(t *testing.T) {
	cfg := quickConfig()
	cfg.L1D.MSHRs = 6
	rec := &requeueRecorder{PMP: core.New(core.DefaultConfig())}
	res := NewSystem(cfg, rec).Run(streamTrace(40_000))

	h := fnv.New64a()
	var buf [9]byte
	for _, r := range rec.requeued {
		a := uint64(r.Addr)
		for i := 0; i < 8; i++ {
			buf[i] = byte(a >> (8 * i))
		}
		buf[8] = byte(r.Level)
		h.Write(buf[:])
	}
	got := struct {
		Issued                [4]uint64
		DroppedPQ, DroppedMSH uint64
		Requeued              int
		RequeueDigest         uint64
	}{res.PF.Issued, res.PF.DroppedPQ, res.PF.DroppedMSH, len(rec.requeued), h.Sum64()}
	want := got
	want.Issued = [4]uint64{0, 114, 65, 0}
	want.DroppedPQ = 3501
	want.DroppedMSH = 267376
	want.Requeued = 267376
	want.RequeueDigest = 6981807566879519205
	if got != want {
		t.Errorf("admission under a saturated L1D MSHR file changed:\n got %+v\nwant %+v", got, want)
	}
	if got.DroppedMSH == 0 || got.DroppedPQ == 0 || got.Requeued == 0 {
		t.Errorf("workload no longer saturates admission: %+v", got)
	}
}
