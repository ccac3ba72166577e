package coexec

import (
	"reflect"
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/schedule"
	"iophases/internal/units"
)

func madbenchModel(t *testing.T, np int, rs int64, file string) *core.Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	params.FileName = file
	res := runner.Run(cluster.ConfigA(), np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func btioModel(t *testing.T, np int) *core.Model {
	t.Helper()
	params := btio.Default(btio.ClassW)
	res := runner.Run(cluster.ConfigA(), np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	m := madbenchModel(t, 4, units.MiB, "/a.dat")
	cases := []struct {
		name string
		spec Spec
	}{
		{"no apps", Spec{Config: cluster.ConfigA()}},
		{"nil model", Spec{Config: cluster.ConfigA(), Apps: []App{{Name: "x"}}}},
		{"negative offset", Spec{Config: cluster.ConfigA(),
			Apps: []App{{Model: m, OffsetSec: -1}}}},
		{"over capacity", Spec{Config: cluster.ConfigA(), Apps: []App{ // 5×4 ranks > 16 cores
			{Name: "a", Model: m}, {Name: "b", Model: m}, {Name: "c", Model: m},
			{Name: "d", Model: m}, {Name: "e", Model: m}}}},
	}
	for _, tc := range cases {
		if err := Validate(tc.spec); err == nil {
			t.Errorf("%s: Validate accepted a bad spec", tc.name)
		}
		if _, err := Run(tc.spec); err == nil {
			t.Errorf("%s: Run accepted a bad spec", tc.name)
		}
	}
	// Missing phase timing (a rescaled model) must be rejected too.
	bad := *m
	bad.Phases = append([]*core.PhaseModel(nil), m.Phases...)
	p0 := *bad.Phases[0]
	p0.MeasuredSec = 0
	bad.Phases[0] = &p0
	if err := Validate(Spec{Config: cluster.ConfigA(), Apps: []App{{Model: &bad}}}); err == nil {
		t.Error("Validate accepted a model without phase timing")
	}
}

// TestAttributionConservation is the conservation law the design rests
// on: with every application carrying an account, the per-app byte totals
// must sum exactly to the shared filesystem's data-path totals — nothing
// double-counted, nothing lost.
func TestAttributionConservation(t *testing.T) {
	a := madbenchModel(t, 4, 2*units.MiB, "/a.dat")
	b := btioModel(t, 4)
	res, err := Run(Spec{Config: cluster.ConfigA(), Apps: []App{
		{Name: "madbench2", Model: a},
		{Name: "btio", Model: b, OffsetSec: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wr, rd int64
	for _, ar := range res.Apps {
		if ar.TimeIO <= 0 {
			t.Fatalf("app %s: no I/O time", ar.Name)
		}
		if ar.Acct.BytesWritten <= 0 {
			t.Fatalf("app %s: no bytes attributed", ar.Name)
		}
		wr += ar.Acct.BytesWritten
		rd += ar.Acct.BytesRead
	}
	if wr != res.FSWritten || rd != res.FSRead {
		t.Fatalf("attribution leak: apps wrote %d read %d, fs saw %d/%d",
			wr, rd, res.FSWritten, res.FSRead)
	}
	if res.WireBytes <= 0 || res.WireMessages <= 0 {
		t.Fatalf("no wire traffic: %d bytes %d msgs", res.WireBytes, res.WireMessages)
	}
	if res.Makespan <= 0 || res.TotalTimeIO <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

// TestPlannedOffsetBeatsCoStart is the acceptance criterion: on two real
// extracted models (madbench2 + BT-IO class W), the analytic BestOffset
// plan must achieve lower simulated total Time_io than naive co-start.
func TestPlannedOffsetBeatsCoStart(t *testing.T) {
	a := madbenchModel(t, 4, 8*units.MiB, "/a.dat")
	b := btioModel(t, 4)
	best, naive := schedule.BestOffset(a, b, schedule.Makespan(schedule.Timeline(a)), 0.5)
	if best.OffsetSec == 0 || best.Score >= naive.Score {
		t.Fatalf("planner found no better offset: best %+v naive %+v", best, naive)
	}
	run := func(off float64) units.Duration {
		res, err := Run(Spec{Config: cluster.ConfigA(), Apps: []App{
			{Name: "madbench2", Model: a},
			{Name: "btio", Model: b, OffsetSec: off},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTimeIO
	}
	coStart := run(0)
	planned := run(best.OffsetSec)
	t.Logf("co-start total Time_io %v; planned +%.1fs total Time_io %v", coStart, best.OffsetSec, planned)
	if planned >= coStart {
		t.Fatalf("planned offset %.1fs did not beat co-start: %v >= %v", best.OffsetSec, planned, coStart)
	}
}

func TestDeterminism(t *testing.T) {
	a := madbenchModel(t, 4, units.MiB, "/a.dat")
	b := madbenchModel(t, 4, 2*units.MiB, "/b.dat")
	spec := Spec{Config: cluster.ConfigA(), Apps: []App{
		{Name: "a", Model: a},
		{Name: "b", Model: b, OffsetSec: 2.5},
	}}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("co-execution not deterministic:\n%+v\n%+v", r1, r2)
	}
}

// TestIsolatedBaseline: a single-app co-execution is the contention-free
// baseline, and adding a contender can only increase that app's Time_io.
func TestIsolatedBaseline(t *testing.T) {
	a := madbenchModel(t, 4, 4*units.MiB, "/a.dat")
	solo, err := Run(Spec{Config: cluster.ConfigA(), Apps: []App{{Name: "a", Model: a}}})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := Run(Spec{Config: cluster.ConfigA(), Apps: []App{
		{Name: "a", Model: a},
		{Name: "b", Model: a, OffsetSec: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Apps[0].TimeIO <= solo.Apps[0].TimeIO {
		t.Fatalf("no interference: contended %v vs isolated %v",
			pair.Apps[0].TimeIO, solo.Apps[0].TimeIO)
	}
}

// TestDegradedCoexecution: a fault schedule on the shared cluster slows
// the co-execution but preserves attribution conservation — degraded
// co-scheduling works with no coexec-specific fault handling.
func TestDegradedCoexecution(t *testing.T) {
	a := madbenchModel(t, 4, 2*units.MiB, "/a.dat")
	healthy, err := Run(Spec{Config: cluster.ConfigA(), Apps: []App{
		{Name: "a", Model: a}, {Name: "b", Model: a, OffsetSec: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := faults.Preset("degraded-mix")
	if !ok {
		t.Fatal("preset degraded-mix missing")
	}
	cfg := cluster.ConfigA()
	cfg.Faults = sched
	degraded, err := Run(Spec{Config: cfg, Apps: []App{
		{Name: "a", Model: a}, {Name: "b", Model: a, OffsetSec: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.TotalTimeIO <= healthy.TotalTimeIO {
		t.Fatalf("faults did not slow the co-execution: %v vs %v",
			degraded.TotalTimeIO, healthy.TotalTimeIO)
	}
	var wr int64
	for _, ar := range degraded.Apps {
		wr += ar.Acct.BytesWritten
	}
	if wr != degraded.FSWritten {
		t.Fatalf("degraded attribution leak: %d vs %d", wr, degraded.FSWritten)
	}
}
