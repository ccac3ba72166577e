package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

// saveModels traces two small MADBench2 jobs and writes their models as
// JSON, returning the paths — the same artifact flow the CLI consumes.
func saveModels(t *testing.T) (a, b string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, rs int64) string {
		params := madbench.Default()
		params.RS = rs
		params.FileName = "/" + name + ".dat"
		res := runner.Run(cluster.ConfigA(), 4, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
			return madbench.Program(sys, params)
		}, runner.Options{Trace: true})
		path := filepath.Join(dir, name+".json")
		if err := core.Build(res.Set).Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return write("a", units.MiB), write("b", 2*units.MiB)
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrorsExitTwo pins the flag-validation contract: bad flags are
// usage errors (exit 2 with a diagnostic), never silent degradation to
// the naive plan.
func TestUsageErrorsExitTwo(t *testing.T) {
	a, b := saveModels(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero step", []string{"-a", a, "-b", b, "-step", "0"}, "-step must be positive"},
		{"negative step", []string{"-a", a, "-b", b, "-step", "-0.5"}, "-step must be positive"},
		{"negative window", []string{"-a", a, "-b", b, "-window", "-1"}, "-window must be non-negative"},
		{"negative grid", []string{"-jobs", a + "," + b, "-sim", "-grid", "-2"}, "-grid must be non-negative"},
		{"negative workers", []string{"-jobs", a + "," + b, "-sim", "-j", "-1"}, "-j must be non-negative"},
		{"no inputs", nil, "-a and -b model files are required"},
		{"one job", []string{"-jobs", a}, "needs at least 2 model files"},
		{"jobs plus ab", []string{"-jobs", a + "," + b, "-a", a, "-b", b}, "-jobs replaces -a/-b"},
		{"bad config", []string{"-jobs", a + "," + b, "-sim", "-config", "nope"}, `unknown -config "nope"`},
		{"unknown flag", []string{"-frobnicate"}, ""},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if tc.want != "" && !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q missing %q", tc.name, stderr, tc.want)
		}
	}
}

func TestMissingModelFileExitsOne(t *testing.T) {
	a, _ := saveModels(t)
	code, _, stderr := runCLI(t, "-a", a, "-b", filepath.Join(t.TempDir(), "nope.json"))
	if code != 1 || stderr == "" {
		t.Fatalf("exit %d stderr %q, want 1 with a diagnostic", code, stderr)
	}
}

func TestAnalyticPlanOutput(t *testing.T) {
	a, b := saveModels(t)
	code, stdout, stderr := runCLI(t, "-a", a, "-b", b)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"planned schedule:", "co-start contention:", "compute gaps"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "simulated co-execution") {
		t.Error("-sim output present without -sim")
	}
}

// TestSimCrossValidation runs the full -sim path: the planned schedule
// must beat co-start in simulated total Time_io, attribution must
// reconcile, and the output must be byte-identical at any worker count.
func TestSimCrossValidation(t *testing.T) {
	a, b := saveModels(t)
	args := []string{"-jobs", a + "," + b, "-sim", "-grid", "3"}
	code, j1, stderr := runCLI(t, append(args, "-j", "1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"verdict: planned schedule beats co-start",
		"attribution check: per-app bytes sum exactly to filesystem totals",
		"contention reduction: analytic predicts",
		"offset grid for the last job",
	} {
		if !strings.Contains(j1, want) {
			t.Errorf("output missing %q:\n%s", want, j1)
		}
	}
	code, j8, _ := runCLI(t, append(args, "-j", "8")...)
	if code != 0 {
		t.Fatalf("-j 8 exit %d", code)
	}
	if j1 != j8 {
		t.Fatalf("-j 1 and -j 8 outputs differ:\n%s\n---\n%s", j1, j8)
	}
}

// TestNegativeOffsetModelExitsOne: a model whose offset function reaches
// below zero is rejected before the co-execution runs. The CLI prints one
// diagnostic line and exits 1 instead of panicking in the simulated
// filesystem.
func TestNegativeOffsetModelExitsOne(t *testing.T) {
	a, b := saveModels(t)
	m, err := core.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	m.Phases[0].OffsetC = -1 << 30
	neg := filepath.Join(t.TempDir(), "neg.json")
	if err := m.Save(neg); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-jobs", neg+","+b, "-sim", "-grid", "2")
	if code != 1 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "negative offset") {
		t.Fatalf("exit %d, stderr %q; want 1 and one line naming the negative offset", code, stderr)
	}
}

// TestGridPastBoundExitsOne: a step or window whose offset grid has more
// than schedule.MaxGridSteps points — here a count past every int — is
// refused with a diagnostic naming the bound, exit 1, instead of the
// co-start plan printed as if the search had run.
func TestGridPastBoundExitsOne(t *testing.T) {
	a, b := saveModels(t)
	for _, flags := range [][]string{{"-step", "1e-300"}, {"-window", "1e300"}} {
		code, stdout, stderr := runCLI(t, append([]string{"-jobs", a + "," + b}, flags...)...)
		if code != 1 || !strings.Contains(stderr, "MaxGridSteps") || strings.Contains(stdout, "planned schedule:") {
			t.Errorf("%v: exit %d, stderr %q; want 1, the bound named and no plan", flags, code, stderr)
		}
	}
}
