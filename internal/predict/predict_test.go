package predict

import (
	"math"
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

// measure runs an app on a spec and returns the model (with measured
// times).
func measureMadbench(t *testing.T, spec cluster.Spec, np int, rs int64) *core.Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	res := runner.Run(spec, np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func measureBTIO(t *testing.T, spec cluster.Spec, np int, class btio.Class) *core.Model {
	t.Helper()
	params := btio.Default(class)
	res := runner.Run(spec, np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-10) > 1e-9 {
		t.Fatalf("err = %v", got)
	}
	if got := RelativeError(90, 100); math.Abs(got-10) > 1e-9 {
		t.Fatalf("err = %v", got)
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Fatal("division by zero not guarded")
	}
}

func TestUsage(t *testing.T) {
	if got := Usage(units.MBps(93), units.MBps(400)); math.Abs(got-23.25) > 0.01 {
		t.Fatalf("usage = %v", got)
	}
	if Usage(units.MBps(93), 0) != 0 {
		t.Fatal("zero peak not guarded")
	}
}

func TestEstimateTimeSharesIdenticalReplays(t *testing.T) {
	// BT-IO's write rounds are identical; one IOR run must serve all of
	// them (plus one for the read phase).
	m := measureBTIO(t, cluster.ConfigA(), 4, btio.ClassW)
	est, err := EstimateTime(m, cluster.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	if est.IORRuns != 2 {
		t.Fatalf("IOR runs = %d, want 2 (writes shared + reads)", est.IORRuns)
	}
	if len(est.Phases) != len(m.Phases) {
		t.Fatalf("phase estimates %d", len(est.Phases))
	}
	if est.TotalCH <= 0 {
		t.Fatal("no total estimate")
	}
	var sum units.Duration
	for _, pe := range est.Phases {
		if pe.BWch <= 0 || pe.TimeCH <= 0 {
			t.Fatalf("phase %d estimate %+v", pe.Phase.ID, pe)
		}
		sum += pe.TimeCH
	}
	if sum != est.TotalCH {
		t.Fatalf("Eq.1 violated: %v != %v", sum, est.TotalCH)
	}
}

func TestEstimationErrorWithinPaperBound(t *testing.T) {
	// The headline claim: estimate on the same configuration the app was
	// measured on and compare — errors below 10% for BT-IO (Tables
	// XIII–XIV). Phase weights must exceed the server caches for the
	// methodology to hold (the paper validates at class D, 2.65 GB per
	// dump); a shortened class D keeps the test fast at that scale.
	class := btio.ClassD
	class.TimeSteps = 25 // 5 dumps
	for _, spec := range []cluster.Spec{cluster.ConfigC(), cluster.Finisterrae()} {
		m := measureBTIO(t, spec, 16, class)
		est, err := EstimateTime(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := CompareByFamily(est, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 2 {
			t.Fatalf("%s: %d groups", spec.Name, len(groups))
		}
		for _, g := range groups {
			if g.RelErr >= 10 {
				t.Errorf("%s %s: error %.2f%%, the paper's bound is 10%% (CH %v, MD %v)",
					spec.Name, g.Label, g.RelErr, g.TimeCH, g.TimeMD)
			}
		}
	}
}

func TestCompareByFamilyGroupsBTIO(t *testing.T) {
	m := measureBTIO(t, cluster.ConfigA(), 4, btio.ClassW)
	est, err := EstimateTime(m, cluster.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	groups, err := CompareByFamily(est, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	dumps := btio.ClassW.Dumps()
	if groups[0].NPhases != dumps || groups[1].NPhases != 1 {
		t.Fatalf("group sizes %d/%d", groups[0].NPhases, groups[1].NPhases)
	}
	if groups[0].Label == groups[1].Label {
		t.Fatal("labels not distinct")
	}
}

func TestSelectConfigPrefersFinisterraeForBTIO(t *testing.T) {
	// Table XII: Finisterrae provides the lower I/O time for BT-IO.
	m := measureBTIO(t, cluster.ConfigC(), 16, btio.ClassA)
	best, choices, err := SelectConfig(m, []cluster.Spec{cluster.ConfigC(), cluster.Finisterrae()})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 2 {
		t.Fatalf("choices %d", len(choices))
	}
	if choices[best].Config != "finisterrae" {
		t.Fatalf("selected %s (times: %v vs %v)", choices[best].Config,
			choices[0].Total, choices[1].Total)
	}
}

func TestPeakBandwidthOrdering(t *testing.T) {
	// Eq. 3–4: config A (RAID5, 4 data disks) should beat config B
	// (3 single disks) at the device level even though B can beat A
	// through the network — the whole point of separating BW_PK from
	// BW_MD.
	aw, _ := PeakBandwidth(cluster.ConfigA(), 512*units.MiB, 8*units.MiB)
	bw, _ := PeakBandwidth(cluster.ConfigB(), 512*units.MiB, 8*units.MiB)
	if aw <= bw {
		t.Fatalf("peak A %v <= peak B %v", aw, bw)
	}
}

func TestUsageBelowFullCapacity(t *testing.T) {
	// Eq. 5 on config A: the application cannot use more capacity than
	// the network lets through, so usage stays well below 100%.
	m := measureMadbench(t, cluster.ConfigA(), 8, 8*units.MiB)
	pkW, pkR := PeakBandwidth(cluster.ConfigA(), 2*units.GiB, 8*units.MiB)
	for _, pm := range m.Phases {
		bwMD := units.BandwidthOf(pm.Weight, units.FromSeconds(pm.MeasuredSec))
		pk := pkW
		if pm.Direction() == core.Read {
			pk = pkR
		}
		u := Usage(bwMD, pk)
		if u <= 0 || u > 100 {
			t.Errorf("phase %d usage %.1f%%", pm.ID, u)
		}
	}
}

func TestMixedPhaseUsesAveragedBandwidth(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigB(), 8, 8*units.MiB)
	var mixed *core.PhaseModel
	for _, pm := range m.Phases {
		if pm.Direction() == core.Mixed {
			mixed = pm
		}
	}
	if mixed == nil {
		t.Fatal("no mixed phase in MADBench model")
	}
	est, err := EstimateTime(m, cluster.ConfigB())
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range est.Phases {
		if pe.Phase == mixed && pe.BWch <= 0 {
			t.Fatal("mixed phase got no averaged bandwidth")
		}
	}
}
