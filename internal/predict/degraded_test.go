package predict

import (
	"fmt"
	"strings"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/units"
)

func TestCompareDegradedSlowsPhasesDown(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 8, 8*units.MiB)
	sch, _ := faults.Preset("slow-disk")
	cmp, err := CompareDegraded(m, cluster.ConfigA(), sch, 512*units.MiB, 8*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Scenario != "slow-disk" || cmp.Config != "configA" {
		t.Fatalf("labels %q/%q", cmp.Scenario, cmp.Config)
	}
	if len(cmp.Phases) != len(m.Phases) {
		t.Fatalf("phase deltas %d, want %d", len(cmp.Phases), len(m.Phases))
	}
	if cmp.Slowdown() <= 1 {
		t.Fatalf("slow-disk slowdown %.2fx not > 1", cmp.Slowdown())
	}
	for _, pd := range cmp.Phases {
		if pd.Degraded.TimeCH < pd.Healthy.TimeCH {
			t.Errorf("phase %d faster degraded (%v) than healthy (%v)",
				pd.Phase.ID, pd.Degraded.TimeCH, pd.Healthy.TimeCH)
		}
		if pd.HealthyUsage <= 0 || pd.DegradedUsage <= 0 {
			t.Errorf("phase %d usage %v/%v", pd.Phase.ID, pd.HealthyUsage, pd.DegradedUsage)
		}
	}
	// The degraded device peak must reflect the slowed disks.
	if cmp.DegradedPeakW >= cmp.HealthyPeakW {
		t.Fatalf("degraded peak %v not below healthy %v", cmp.DegradedPeakW, cmp.HealthyPeakW)
	}
}

func TestCompareDegradedValidatesSchedule(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 8, 8*units.MiB)
	bad := &faults.Schedule{Name: "bad", Effects: []faults.Effect{
		{Kind: faults.SlowDisk, Factor: 0.5},
	}}
	if _, err := CompareDegraded(m, cluster.ConfigA(), bad, 512*units.MiB, 8*units.MiB); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

// The panics this layer used to raise are now errors a CLI can print. The
// weight scales with the rank count, as a model extracted at 10,000 ranks
// would have it, so the model passes validation and reaches the capacity
// check.
func TestEstimateTimeRejectsOversizedModel(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 8, 4*units.MiB)
	for _, pm := range m.Phases {
		pm.Weight = pm.Weight / int64(pm.NP) * 10_000
		pm.NP = 10_000
	}
	_, err := EstimateTime(m, cluster.ConfigA())
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("oversized model: err = %v", err)
	}
	if _, _, err := SelectConfig(m, []cluster.Spec{cluster.ConfigA()}); err == nil {
		t.Fatal("SelectConfig accepted an oversized model")
	}
	if _, err := Explore(m, StandardVariants(cluster.ConfigA())); err == nil {
		t.Fatal("Explore accepted an oversized model")
	}
}

// TestEstimateTimeRejectsNegativeRequestSize: an in-memory model, never
// loaded from a file, is still validated before any replay runs. A
// negative size in slot 0 breaks the IOR replay; one in a later slot of a
// mixed phase breaks only the phase-faithful replay.
func TestEstimateTimeRejectsNegativeRequestSize(t *testing.T) {
	for _, slot := range []int{0, 1} {
		m := measureMadbench(t, cluster.ConfigA(), 4, units.MiB)
		var pm *core.PhaseModel
		for _, p := range m.Phases {
			if len(p.Ops) > slot {
				pm = p
				break
			}
		}
		if pm == nil {
			t.Fatalf("no phase with %d operations", slot+1)
		}
		pm.Ops[slot].Size = -5
		want := fmt.Sprintf("model phase %d: ior:", pm.ID)
		for _, opts := range []EstimateOptions{{}, {FaithfulMixed: true}} {
			_, err := EstimateTimeOpts(m, cluster.ConfigA(), opts)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("slot %d %+v: err = %v, want one containing %q", slot, opts, err, want)
			}
		}
		if _, _, err := SelectConfig(m, []cluster.Spec{cluster.ConfigA()}); err == nil {
			t.Fatalf("slot %d: SelectConfig accepted a negative request size", slot)
		}
		if _, err := Explore(m, StandardVariants(cluster.ConfigA())); err == nil {
			t.Fatalf("slot %d: Explore accepted a negative request size", slot)
		}
	}
}

func TestCompareByFamilyRejectsPhaseCountMismatch(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 8, 4*units.MiB)
	est, err := EstimateTime(m, cluster.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	other := *m
	other.Phases = append([]*core.PhaseModel(nil), m.Phases[:len(m.Phases)-1]...)
	_, err = CompareByFamily(est, &other)
	if err == nil || !strings.Contains(err.Error(), "phase count mismatch") {
		t.Fatalf("mismatched models: err = %v", err)
	}
}
