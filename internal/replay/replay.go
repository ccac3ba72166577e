// Package replay implements the phase-faithful replay benchmark the paper
// leaves as future work (§V): "We are designing benchmark to replicate the
// I/O when there are 2 o more operations in a phase to fit the
// characterization better and reduce estimation error."
//
// Where the IOR parameterization of §III-B can only run one operation type
// per pass (mixed phases get the *average* of a write pass and a read
// pass), this replayer executes the phase's exact operation sequence: per
// repetition, every slot in order, at the modeled offsets — including the
// inter-slot skews (MADBench2's phase 3 reads running two bins ahead of
// its writes) and the collective/independent and shared/unique metadata.
// Bandwidth is measured the way the application's BW_MD is measured: the
// maximum per-rank busy time.
package replay

import (
	"fmt"
	"math"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// Result is a phase replay measurement.
type Result struct {
	Elapsed units.Duration  // max per-rank I/O busy time
	BW      units.Bandwidth // phase weight / Elapsed
}

// Phase replays pm (a phase of model m) on a freshly built configuration
// and reports the characterized bandwidth. It checks the phase's rank
// count and offsets, then runs the DES: the analytic fast path prices IOR
// replays only, so a faithful replay is always simulated. A model whose
// phase needs more ranks than the configuration has cores is a usage
// error, reported as an error rather than a panic so CLIs can print a
// diagnostic and exit.
func Phase(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) (Result, error) {
	if pm.NP > spec.MaxProcs() {
		return Result{}, fmt.Errorf("replay: %d ranks exceed %s capacity %d (use a larger configuration or a smaller model)",
			pm.NP, spec.Name, spec.MaxProcs())
	}
	if err := CheckOffsets(m.App, pm); err != nil {
		return Result{}, fmt.Errorf("replay: %w", err)
	}
	busy := phaseBusy(spec, m, pm)
	res := Result{Elapsed: busy}
	if busy > 0 {
		res.BW = units.BandwidthOf(pm.Weight, busy)
	}
	if tl := obs.Timeline(); tl != nil {
		// One span per replayed phase on its own track: the replay's
		// virtual clock starts at zero, so the busy window is [0, busy].
		tl.Track("replay "+m.App+"@"+spec.Name, fmt.Sprintf("phase %d", pm.ID)).
			Span(fmt.Sprintf("replay phase %d", pm.ID), 0, int64(busy),
				obs.Arg{Key: "weight", Value: pm.Weight},
				obs.Arg{Key: "rs", Value: pm.RequestSize()},
				obs.Arg{Key: "np", Value: pm.NP},
				obs.Arg{Key: "bwMBps", Value: res.BW.MBpsValue()})
	}
	return res, nil
}

// phaseBusy runs the full DES replay and reports the maximum per-rank I/O
// busy time. The caller has already validated the rank count.
func phaseBusy(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) units.Duration {
	np := pm.NP
	c := cluster.Build(spec)
	nodes := make([]string, np)
	for i := range nodes {
		nodes[i] = c.NodeOfRank(i, np)
	}
	w := mpi.NewWorld(c.Eng, c.Fabric, nodes)
	sys := mpiio.NewSystem(c.FS, w)

	access := mpiio.Shared
	if m.AccessType == "unique" {
		access = mpiio.Unique
	}

	busy := make([]units.Duration, np)
	w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, fmt.Sprintf("/replay.phase%d", pm.ID), access)
		r.Barrier()
		start := r.Now()
		PhaseOps(r, f, pm)
		busy[r.ID()] = r.Now() - start
		f.Close(r)
	})

	var max units.Duration
	for _, d := range busy {
		if d > max {
			max = d
		}
	}
	return max
}

// PhaseOps executes one phase's exact operation sequence on an open file:
// per repetition, every slot in order, at the modeled offsets (family base
// + repetition displacement + slot skew), collective or independent per
// the model. Both the isolated replay above and the multi-application
// co-execution layer drive their ranks through this one loop, so a phase
// costs the same whether it runs alone or contends.
func PhaseOps(r *mpi.Rank, f *mpiio.File, pm *core.PhaseModel) {
	base := pm.OffsetFn().Eval(r.ID(), familyRep(pm))
	for rep := 0; rep < pm.Rep; rep++ {
		for _, op := range pm.Ops {
			off := base + int64(rep)*op.Disp + op.Skew
			switch {
			case op.Op.IsWrite() && pm.Collective:
				f.WriteAtAll(r, off, op.Size)
			case op.Op.IsWrite():
				f.WriteAt(r, off, op.Size)
			case pm.Collective:
				f.ReadAtAll(r, off, op.Size)
			default:
				f.ReadAt(r, off, op.Size)
			}
		}
	}
}

// familyRep is the 1-based family repetition PhaseOps evaluates pm's
// offset function at; an unsplit phase records 0.
func familyRep(pm *core.PhaseModel) int {
	if pm.FamilyRep == 0 {
		return 1
	}
	return pm.FamilyRep
}

// CheckOffsets reports an error naming app and the phase if PhaseOps would
// address a negative offset for pm, or an extent that leaves int64. A
// hand-edited model can hold such an offset function, and so can one
// fitted from ranks whose offsets are not affine (the fit rounds a
// least-squares slope). The simulated filesystem panics on a negative
// offset, on a process goroutine where no caller can recover, so replay
// and co-execution reject the phase first. The offset
// Eval(idP, famRep) + rep·Disp + Skew is affine in the rank and in the
// repetition: ranks 0 and NP−1 at repetitions 0 and Rep−1 bound it for
// each slot.
func CheckOffsets(app string, pm *core.PhaseModel) error {
	if pm.NP < 1 || pm.Rep < 1 {
		return nil // PhaseOps issues nothing
	}
	fn := pm.OffsetFn()
	k := int64(familyRep(pm) - 1)
	for slot, op := range pm.Ops {
		for _, rank := range [2]int{0, pm.NP - 1} {
			for _, rep := range [2]int{0, pm.Rep - 1} {
				x := int64(rank)
				off := checked{ok: true}
				off.add(fn.C)
				off.add(fn.A, x)
				off.add(fn.B, k)
				off.add(fn.D, x, k)
				off.add(int64(rep), op.Disp)
				off.add(op.Skew)
				end := off
				end.add(op.Size)
				switch {
				case !end.ok:
					return fmt.Errorf("%s phase %d: slot %d of rank %d, repetition %d, has an offset beyond int64",
						app, pm.ID, slot, rank, rep)
				case off.v < 0:
					return fmt.Errorf("%s phase %d: slot %d of rank %d, repetition %d, starts at negative offset %d",
						app, pm.ID, slot, rank, rep, off.v)
				}
			}
		}
	}
	return nil
}

// checked is an int64 sum of products that remembers whether any step
// overflowed.
type checked struct {
	v  int64
	ok bool
}

// add adds the product of factors to the sum.
func (c *checked) add(factors ...int64) {
	p, ok := int64(1), true
	for _, f := range factors {
		if f == 0 {
			return // the product is 0 whatever the other factors
		}
		q := p * f
		ok = ok && q/f == p && !(f == -1 && p == math.MinInt64)
		p = q
	}
	s := c.v + p
	c.ok = c.ok && ok && (s > c.v) == (p > 0)
	c.v = s
}
