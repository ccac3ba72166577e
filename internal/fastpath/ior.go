package fastpath

import (
	"iophases/internal/cluster"
	"iophases/internal/ior"
	"iophases/internal/units"
)

// RunIOR computes an IOR run analytically. ok is false when the workload
// is inadmissible or the walk hit a dynamic bailout; the caller must then
// run the full DES. When ok, the Result is bit-identical to ior.Run's —
// every field — which ModeVerify asserts.
func RunIOR(spec cluster.Spec, p ior.Params) (ior.Result, bool) {
	if admitIOR(spec, p) != "" {
		cBailouts.Inc()
		return ior.Result{}, false
	}
	w := getWalker(spec)
	defer walkers.Put(w)
	chunks := int(p.BlockSize / p.Transfer)
	order := p.ChunkOrder(0)

	w.open()
	// One pass mirrors RunOn's: at a single rank the enclosing barriers
	// are free, ReorderRead maps rank 0 back to itself, and each transfer
	// is one contiguous extent at the layout offset.
	pass := func(write bool) (start, end units.Duration) {
		start = w.now
		for seg := 0; seg < p.Segments; seg++ {
			for _, ch := range order {
				off := p.Offset(0, seg, ch)
				if write {
					w.writeExtent(off, p.Transfer)
				} else {
					w.readExtent(off, p.Transfer)
				}
				if w.bailed() {
					return start, w.now
				}
			}
		}
		if write && p.Fsync {
			w.fsync()
		}
		return start, w.now
	}

	var writeStart, writeEnd, readStart, readEnd units.Duration
	if p.DoWrite {
		writeStart, writeEnd = pass(true)
	}
	if p.DoWrite && p.DoRead && !w.bailed() {
		w.dropCaches()
	}
	if p.DoRead && !w.bailed() {
		readStart, readEnd = pass(false)
	}
	if w.bailed() {
		cBailouts.Inc()
		return ior.Result{}, false
	}
	w.close()

	res := ior.Result{Params: p}
	vol := p.AggregateBytes()
	ops := int64(chunks) * int64(p.Segments) * int64(p.NP)
	if p.DoWrite {
		res.WriteTime = writeEnd - writeStart
		res.WriteBW = units.BandwidthOf(vol, res.WriteTime)
		res.WriteOps = ops
		if sec := res.WriteTime.Seconds(); sec > 0 {
			res.IOPSw = float64(ops) / sec
		}
	}
	if p.DoRead {
		res.ReadTime = readEnd - readStart
		res.ReadBW = units.BandwidthOf(vol, res.ReadTime)
		res.ReadOps = ops
		if sec := res.ReadTime.Seconds(); sec > 0 {
			res.IOPSr = float64(ops) / sec
		}
	}
	cHits.Inc()
	return res, true
}
