package fastpath

import (
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/units"
)

// ReplayPhase computes a phase replay's busy time analytically: the exact
// operation sequence replay.Phase issues at one rank — per repetition,
// every slot at its modeled offset — priced by the same walker as IOR. ok
// is false on inadmissible workloads or dynamic bailouts; elapsed matches
// replay.Phase's Elapsed bit-exactly when ok.
//
// The busy window mirrors the replayer's: it opens after the file open and
// closes before the collective close, so neither metadata operation is
// included. The write-back cache is not drained — the replay measures
// client-visible time, dirty data and all, exactly as the DES does.
func ReplayPhase(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) (units.Duration, bool) {
	if admitReplay(spec, m, pm) != "" {
		cBailouts.Inc()
		return 0, false
	}
	w := getWalker(spec)
	defer walkers.Put(w)
	fn := pm.OffsetFn()
	famRep := pm.FamilyRep
	if famRep == 0 {
		famRep = 1
	}

	w.open()
	base := fn.Eval(0, famRep)
	start := w.now
	for rep := 0; rep < pm.Rep; rep++ {
		for _, op := range pm.Ops {
			off := base + int64(rep)*op.Disp + op.Skew
			if op.Size == 0 {
				// Zero-size slots map to no physical extents: free.
				continue
			}
			if op.Size < 0 || off < 0 {
				// The DES panics on these; bail so it still does.
				cBailouts.Inc()
				return 0, false
			}
			if op.Op.IsWrite() {
				w.writeExtent(off, op.Size)
			} else {
				w.readExtent(off, op.Size)
			}
			if w.bailed() {
				cBailouts.Inc()
				return 0, false
			}
		}
	}
	busy := w.now - start
	cHits.Inc()
	return busy, true
}
