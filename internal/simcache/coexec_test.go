package simcache

import (
	"testing"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/coexec"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

func coexecModel(t testing.TB, rs int64) *core.Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	res := runner.Run(cluster.ConfigA(), 4, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func coexecPair(m *core.Model, off float64) coexec.Spec {
	return coexec.Spec{Config: cluster.ConfigA(), Apps: []coexec.App{
		{Name: "a", Model: m},
		{Name: "b", Model: m, OffsetSec: off},
	}}
}

func TestCoexecKeySeparatesPhysicalFields(t *testing.T) {
	m := coexecModel(t, units.MiB)
	base := coexecPair(m, 1)

	shifted := coexecPair(m, 2) // a different schedule is a different run
	if FingerprintCoexec(base) == FingerprintCoexec(shifted) {
		t.Fatal("offset change did not re-key")
	}

	resized := *m // a different model is a different run
	resized.Phases = append([]*core.PhaseModel(nil), m.Phases...)
	p0 := *resized.Phases[0]
	p0.Rep++
	resized.Phases[0] = &p0
	if FingerprintCoexec(base) == FingerprintCoexec(coexecPair(&resized, 1)) {
		t.Fatal("phase change did not re-key")
	}

	timed := *m // measured timing schedules the phases, so it is physical here
	timed.Phases = append([]*core.PhaseModel(nil), m.Phases...)
	pt := *timed.Phases[0]
	pt.StartSec += 1
	timed.Phases[0] = &pt
	if FingerprintCoexec(base) == FingerprintCoexec(coexecPair(&timed, 1)) {
		t.Fatal("phase timing change did not re-key")
	}

	degraded := base // a fault schedule changes the physics
	degraded.Config.Faults, _ = faults.Preset("degraded-mix")
	if FingerprintCoexec(base) == FingerprintCoexec(degraded) {
		t.Fatal("fault schedule did not re-key")
	}

	swapped := base // app order fixes core allocation and launch order
	swapped.Apps = []coexec.App{base.Apps[1], base.Apps[0]}
	if FingerprintCoexec(base) == FingerprintCoexec(swapped) {
		t.Fatal("app reordering did not re-key")
	}
}

func TestRunCoexecCachesAndMatches(t *testing.T) {
	Reset()
	m := coexecModel(t, units.MiB)
	spec := coexecPair(m, 1.5)
	r1, err := RunCoexec(spec)
	if err != nil {
		t.Fatal(err)
	}
	h0, _, _ := Stats()
	r2, err := RunCoexec(spec)
	if err != nil {
		t.Fatal(err)
	}
	h1, _, _ := Stats()
	if h1 != h0+1 {
		t.Fatalf("second run missed the cache: hits %d -> %d", h0, h1)
	}
	if r1 != r2 {
		t.Fatal("cache hit returned a different result pointer")
	}
	direct, err := coexec.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalTimeIO != r1.TotalTimeIO || direct.FSWritten != r1.FSWritten {
		t.Fatalf("cached result diverges from direct run: %+v vs %+v", r1, direct)
	}
}

// An app's name labels its result and its filesystem account, so a
// relabelled spec is a different input: its result must carry its own
// names, not those of the first spec's cached run.
func TestRunCoexecRelabelledSpecGetsItsOwnNames(t *testing.T) {
	Reset()
	defer Reset()
	if _, err := RunCoexec(coexecBase()); err != nil {
		t.Fatal(err)
	}
	spec := coexecBase()
	spec.Apps[0].Name = "other"
	res, err := RunCoexec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Apps[0]; got.Name != "other" || got.Acct.Name != "other" {
		t.Fatalf("relabelled spec got app name %q, account %q; want \"other\" for both", got.Name, got.Acct.Name)
	}
}

func TestRunCoexecRejectsInvalidWithoutCaching(t *testing.T) {
	Reset()
	if _, err := RunCoexec(coexec.Spec{Config: cluster.ConfigA()}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if Len() != 0 {
		t.Fatalf("invalid spec polluted the cache: %d entries", Len())
	}
}
