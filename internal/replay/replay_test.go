package replay_test

import (
	"fmt"
	"strings"
	"testing"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/predict"
	"iophases/internal/replay"
	"iophases/internal/runner"
	"iophases/internal/units"
)

func madbenchModel(t testing.TB, spec cluster.Spec, np int, rs int64) *core.Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	res := runner.Run(spec, np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

// The "%d ranks exceed" panic is now a returned error: a CLI fed a model
// too large for the target prints a diagnostic instead of crashing.
func TestReplayRejectsOversizedModels(t *testing.T) {
	m := madbenchModel(t, cluster.ConfigA(), 8, 4*units.MiB)
	pm := *m.Phases[0]
	pm.NP = 10_000
	if _, err := replay.Phase(cluster.ConfigA(), m, &pm); err == nil ||
		!strings.Contains(err.Error(), "exceed") {
		t.Fatalf("oversized phase: err = %v", err)
	}
}

func TestPhaseReplayMovesTheWeight(t *testing.T) {
	m := madbenchModel(t, cluster.ConfigA(), 8, 4*units.MiB)
	for _, pm := range m.Phases {
		r, err := replay.Phase(cluster.ConfigA(), m, pm)
		if err != nil {
			t.Fatal(err)
		}
		if r.BW <= 0 || r.Elapsed <= 0 {
			t.Fatalf("phase %d replay %+v", pm.ID, r)
		}
	}
}

func TestFaithfulReplayTracksMixedPhaseBetterThanIORAverage(t *testing.T) {
	// The §V improvement: on a configuration where the interleaved phase
	// behaves unlike the average of pure passes, the faithful replayer's
	// estimate must be at least as close to the measurement.
	for _, spec := range []cluster.Spec{cluster.ConfigA(), cluster.ConfigB()} {
		m := madbenchModel(t, spec, 16, 8*units.MiB)
		var mixed *core.PhaseModel
		var mixedIdx int
		for i, pm := range m.Phases {
			if len(pm.Ops) > 1 {
				mixed, mixedIdx = pm, i
			}
		}
		if mixed == nil {
			t.Fatal("no mixed phase")
		}
		md := m.Phases[mixedIdx].MeasuredSec

		iorEst, err := predict.EstimateTime(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		faithfulEst, err := predict.EstimateTimeOpts(m, spec,
			predict.EstimateOptions{FaithfulMixed: true})
		if err != nil {
			t.Fatal(err)
		}
		ior := iorEst.Phases[mixedIdx].TimeCH.Seconds()
		faithful := faithfulEst.Phases[mixedIdx].TimeCH.Seconds()

		errIOR := predict.RelativeError(ior, md)
		errFaithful := predict.RelativeError(faithful, md)
		t.Logf("%s mixed phase: MD=%.2fs IOR=%.2fs (%.0f%%) faithful=%.2fs (%.0f%%)",
			spec.Name, md, ior, errIOR, faithful, errFaithful)
		if errFaithful > errIOR+5 {
			t.Errorf("%s: faithful replay worse (%.0f%%) than IOR average (%.0f%%)",
				spec.Name, errFaithful, errIOR)
		}
	}
}

func TestFaithfulFlagOnlyOnMixedPhases(t *testing.T) {
	m := madbenchModel(t, cluster.ConfigA(), 8, 4*units.MiB)
	est, err := predict.EstimateTimeOpts(m, cluster.ConfigA(), predict.EstimateOptions{FaithfulMixed: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range est.Phases {
		if pe.Faithful != (len(pe.Phase.Ops) > 1) {
			t.Fatalf("phase %d faithful=%v ops=%d", pe.Phase.ID, pe.Faithful, len(pe.Phase.Ops))
		}
	}
}

// TestReplayRejectsNegativeOffsets: a phase whose offset function reaches
// below zero at any rank, repetition or slot, or past int64, is an error
// naming the app and the phase. The simulated filesystem would panic on
// such an offset inside a process goroutine, which no caller can recover.
func TestReplayRejectsNegativeOffsets(t *testing.T) {
	m := madbenchModel(t, cluster.ConfigA(), 4, units.MiB)
	var mixed *core.PhaseModel
	for _, pm := range m.Phases {
		if len(pm.Ops) > 1 {
			mixed = pm
		}
	}
	if mixed == nil || mixed.NP != 4 || mixed.Rep < 2 {
		t.Fatalf("no multi-slot, multi-repetition phase in %+v", m.Phases)
	}
	cases := []struct {
		name string
		edit func(pm *core.PhaseModel)
		want string // "" for a valid phase
	}{
		{"as traced", func(pm *core.PhaseModel) {}, ""},
		{"intercept", func(pm *core.PhaseModel) { pm.OffsetC = -1 << 30 }, "rank 0, repetition 0, starts at negative offset"},
		{"last rank", func(pm *core.PhaseModel) { pm.OffsetA = -pm.OffsetA }, "rank 3, repetition 0, starts at negative offset"},
		{"last repetition", func(pm *core.PhaseModel) { pm.Ops[0].Disp = -pm.Ops[0].Disp }, "slot 0 of rank 0, repetition"},
		{"slot skew", func(pm *core.PhaseModel) { pm.Ops[1].Skew = -1 }, "slot 1 of rank 0, repetition 0, starts at negative offset"},
		{"family term", func(pm *core.PhaseModel) { pm.OffsetD, pm.FamilyRep = -1<<40, 2 }, "rank 3, repetition 0, starts at negative offset"},
		{"overflow", func(pm *core.PhaseModel) { pm.OffsetD, pm.FamilyRep = 1<<62, 3 }, "beyond int64"},
	}
	for _, tc := range cases {
		pm := *mixed
		pm.Ops = append([]core.OpModel(nil), mixed.Ops...)
		tc.edit(&pm)
		_, err := replay.Phase(cluster.ConfigA(), m, &pm)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: replayed without error", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), fmt.Sprintf("madbench2 phase %d: ", pm.ID)):
			t.Errorf("%s: error %q does not name the app and phase", tc.name, err)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestReplayCollectivePhase(t *testing.T) {
	// A synthetic collective model phase replays without deadlock and
	// with a sensible rate.
	m := madbenchModel(t, cluster.ConfigA(), 4, units.MiB)
	pm := m.Phases[0]
	pm.Collective = true // force the collective path
	r, err := replay.Phase(cluster.ConfigA(), m, pm)
	if err != nil {
		t.Fatal(err)
	}
	if r.BW <= 0 {
		t.Fatalf("collective replay %+v", r)
	}
}
