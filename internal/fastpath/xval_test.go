// Tests of the fast path's admission boundary from an external test
// package: they reach the fast path through predict, which imports it, so
// they cannot live inside package fastpath.
package fastpath_test

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/predict"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// TestFaultPresetsBail pins the admission rule's first gate: any fault
// schedule — all five built-in presets — makes RunIOR bail, so
// degraded-mode analysis always runs the full DES.
func TestFaultPresetsBail(t *testing.T) {
	names := faults.PresetNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 fault presets, got %v", names)
	}
	p := ior.Params{NP: 1, BlockSize: units.MiB, Transfer: 256 * units.KiB,
		Segments: 1, DoWrite: true, DoRead: true, Fsync: true}
	for _, name := range names {
		spec := cluster.ConfigA()
		sched, ok := faults.Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		spec.Faults = sched
		if _, ok := fastpath.RunIOR(spec, p); ok {
			t.Errorf("RunIOR admitted faulted spec (preset %s)", name)
		}
	}
}

// TestFaithfulReplayRunsDES: a phase-faithful replay never reaches the
// fast path, even one it could price (one rank on configA, whose one I/O
// node holds a RAID5 array behind a write cache). The model's only phase
// writes each 1 MiB extent and reads it back, so a FaithfulMixed estimate
// makes no IOR replay either, and the fast-path counters must not move.
func TestFaithfulReplayRunsDES(t *testing.T) {
	m := &core.Model{App: "xval", NP: 1, AccessType: "shared", Phases: []*core.PhaseModel{{
		ID: 1, NP: 1, Rep: 8, Weight: 16 * units.MiB, OffsetOK: true,
		Ops: []core.OpModel{
			{Op: trace.OpWriteAt, Size: units.MiB, Disp: units.MiB},
			{Op: trace.OpReadAt, Size: units.MiB, Disp: units.MiB},
		},
	}}}
	hits, bails := fastpath.Stats()
	est, err := predict.EstimateTimeOpts(m, cluster.ConfigA(),
		predict.EstimateOptions{FaithfulMixed: true, FastPath: fastpath.ModeOn})
	if err != nil {
		t.Fatal(err)
	}
	if pe := est.Phases[0]; !pe.Faithful || pe.BWch <= 0 {
		t.Fatalf("phase estimate %+v, want a faithful replay with a positive bandwidth", pe)
	}
	if h, b := fastpath.Stats(); h != hits || b != bails {
		t.Errorf("fast-path hits %d → %d, bailouts %d → %d; want both unchanged", hits, h, bails, b)
	}
}
