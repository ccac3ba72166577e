package faults

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"iophases/internal/des"
	"iophases/internal/units"
)

func attach(t *testing.T, sch *Schedule) *Injector {
	t.Helper()
	eng := des.NewEngine()
	Attach(eng, sch, "test")
	inj := For(eng)
	if inj == nil {
		t.Fatal("Attach did not register an injector")
	}
	return inj
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		sch  *Schedule
		want string
	}{
		{"nil", nil, "nil schedule"},
		{"empty", &Schedule{Name: "e"}, "no effects"},
		{"factor", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 1}}}, "must exceed 1"},
		{"negative-from", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 2, FromSec: -1}}}, "negative"},
		{"member", &Schedule{Effects: []Effect{{Kind: RAIDMemberLost, Member: -1}}}, "negative"},
		{"flap", &Schedule{Effects: []Effect{{Kind: LinkFlap, DownMs: 10}}}, "positive"},
		{"prob", &Schedule{Effects: []Effect{{Kind: TransientError, Prob: 1.5, OpCount: 1}}}, "outside"},
		{"budget", &Schedule{Effects: []Effect{{Kind: TransientError, Prob: 0.5}}}, "opCount"},
		{"kind", &Schedule{Effects: []Effect{{Kind: "meteor-strike"}}}, "unknown kind"},
		{"inverted", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 2, FromSec: 5, ForSec: -3}}}, "end before it starts"},
		{"disk-product", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 1000}, {Kind: SlowDisk, Factor: 1001, Match: "d1"}}}, "may be at most"},
		{"link-product", &Schedule{Effects: []Effect{{Kind: LinkDegraded, Factor: 2e6}}}, "may be at most"},
		{"from-past-end", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 2, FromSec: 1e10}}}, "past the end of virtual time"},
		{"window-past-end", &Schedule{Effects: []Effect{{Kind: SlowDisk, Factor: 2, FromSec: 5e9, ForSec: 5e9}}}, "past the end of virtual time"},
		{"flap-sub-ns", &Schedule{Effects: []Effect{{Kind: LinkFlap, DownMs: 1e-7, UpMs: 1}}}, "at least 1 ns"},
		{"flap-long", &Schedule{Effects: []Effect{{Kind: LinkFlap, DownMs: 9e12, UpMs: 1e-6}}}, "at most 3600"},
		{"flap-past-end", &Schedule{Effects: []Effect{{Kind: LinkFlap, DownMs: 3.6e6, UpMs: 3.6e6, FromSec: 9.22337e9}}}, "past the end of virtual time"},
		{"budget-sum", &Schedule{Effects: []Effect{{Kind: TransientError, Prob: 1, OpCount: 60_000}, {Kind: TransientError, Prob: 1, OpCount: 40_001}}}, "sum past 100000"},
		{"budget-huge", &Schedule{Effects: []Effect{{Kind: TransientError, Prob: 1, OpCount: 1_000_000_000}}}, "sum past 100000"},
	}
	for _, tc := range cases {
		err := tc.sch.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAcceptsBoundaries pins that the overflow bounds are not
// off by one: factor products of exactly 1e6, 1 ns and one-hour flaps,
// a window ending near the last representable instant and transient-error
// budgets summing to exactly 1e5 are accepted.
func TestValidateAcceptsBoundaries(t *testing.T) {
	for _, sch := range []*Schedule{
		{Effects: []Effect{{Kind: SlowDisk, Factor: 1000}, {Kind: SlowDisk, Factor: 1000}}},
		{Effects: []Effect{{Kind: LinkDegraded, Factor: 1e6}, {Kind: SlowDisk, Factor: 1e6}}},
		{Effects: []Effect{{Kind: LinkFlap, DownMs: 1e-6, UpMs: 1e-6}}},
		{Effects: []Effect{{Kind: LinkFlap, DownMs: 3.6e6, UpMs: 3.6e6, FromSec: 9.2e9}}},
		{Effects: []Effect{{Kind: SlowDisk, Factor: 2, FromSec: 4e9, ForSec: 5e9}}},
		{Effects: []Effect{{Kind: TransientError, Prob: 1, OpCount: 60_000}, {Kind: TransientError, Prob: 1, OpCount: 40_000}}},
	} {
		if err := sch.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", sch.Effects, err)
		}
	}
}

func TestPresetsValidAndSorted(t *testing.T) {
	names := PresetNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("preset names not sorted: %v", names)
	}
	if len(names) < 5 {
		t.Fatalf("presets = %v", names)
	}
	for _, name := range names {
		s, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %q self-names %q", name, s.Name)
		}
	}
}

func TestResolvePresetFileAndUnknown(t *testing.T) {
	if s, err := Resolve("slow-disk"); err != nil || s.Name != "slow-disk" {
		t.Fatalf("preset resolve: %v, %v", s, err)
	}

	path := filepath.Join(t.TempDir(), "scenario.json")
	body := `{"seed": 7, "effects": [{"kind": "slow-disk", "factor": 2.5, "fromSec": 10, "forSec": 5}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(path, ".json"); s.Name != want {
		t.Fatalf("file schedule name %q, want %q (path sans .json)", s.Name, want)
	}
	if s.Seed != 7 || len(s.Effects) != 1 || s.Effects[0].Factor != 2.5 {
		t.Fatalf("loaded schedule %+v", s)
	}

	_, err = Resolve("no-such-scenario")
	if err == nil || !strings.Contains(err.Error(), "slow-disk") {
		t.Fatalf("unknown-arg error should list presets, got: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"effects": [{"kind": "slow-disk", "factor": 0.5}]}`), 0o644)
	if _, err := Resolve(bad); err == nil {
		t.Fatal("invalid scenario file accepted")
	}
}

// TestLoadScenarioErrorPaths pins that every malformed scenario file
// comes back as a diagnostic error — never a panic and never a
// silently-accepted schedule (DESIGN.md §9: bad input must not ship a
// wrong table).
func TestLoadScenarioErrorPaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		body string
		want string
	}{
		{"syntax.json", `{"effects": [`, "unexpected end"},
		{"notjson.json", `slow-disk factor 3`, "invalid character"},
		{"unknown-kind.json", `{"effects": [{"kind": "meteor-strike", "fromSec": 1}]}`, "unknown kind"},
		{"inverted.json", `{"effects": [{"kind": "slow-disk", "factor": 2, "fromSec": 5, "forSec": -3}]}`, "end before it starts"},
		// Each of these three once crashed the simulation: a service
		// time or a flap cycle past int64 nanoseconds.
		{"slow-disk-1e300.json", `{"effects": [{"kind": "slow-disk", "factor": 1e300}]}`, "may be at most"},
		{"link-degraded-1e300.json", `{"effects": [{"kind": "link-degraded", "factor": 1e300}]}`, "may be at most"},
		{"link-flap-1e-300.json", `{"effects": [{"kind": "link-flap", "downMs": 1e-300, "upMs": 1e-300}]}`, "at least 1 ns"},
	}
	for _, tc := range cases {
		path := write(tc.name, tc.body)
		s, err := Load(path)
		if err == nil {
			t.Errorf("%s: accepted as %+v, want error", tc.name, s)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("nonexistent file accepted")
	}
}

func TestDiskTimeScalesOnlyInsideWindow(t *testing.T) {
	inj := attach(t, &Schedule{Name: "w", Effects: []Effect{
		{Kind: SlowDisk, Match: "ion0", Factor: 3, FromSec: 10, ForSec: 10},
	}})
	base := 100 * units.Millisecond
	cases := []struct {
		name string
		now  units.Duration
		want units.Duration
	}{
		{"ion0/d0", 5 * units.Second, base},      // before the window
		{"ion0/d0", 15 * units.Second, 3 * base}, // inside
		{"ion0/d0", 20 * units.Second, base},     // window end is exclusive
		{"ion1/d0", 15 * units.Second, base},     // name does not match
	}
	for _, tc := range cases {
		if got := inj.DiskTime(tc.name, tc.now, base); got != tc.want {
			t.Errorf("DiskTime(%s, %v) = %v, want %v", tc.name, tc.now, got, tc.want)
		}
	}
}

func TestLinkFactorAndOutage(t *testing.T) {
	inj := attach(t, &Schedule{Name: "n", Effects: []Effect{
		{Kind: LinkDegraded, Factor: 2},
		{Kind: LinkFlap, DownMs: 20, UpMs: 80},
	}})
	if f := inj.LinkFactor("node0:up", 0); f != 2 {
		t.Fatalf("factor %v", f)
	}
	// The flap cycle is phase-locked to the window start (0s): down for
	// [0, 20ms), up for [20ms, 100ms), repeating.
	if w := inj.LinkOutage("node0:up", 5*units.Millisecond); w != 15*units.Millisecond {
		t.Fatalf("outage at 5ms = %v, want 15ms", w)
	}
	if w := inj.LinkOutage("node0:up", 50*units.Millisecond); w != 0 {
		t.Fatalf("outage in up phase = %v", w)
	}
	if w := inj.LinkOutage("node0:up", 100*units.Millisecond); w != 20*units.Millisecond {
		t.Fatalf("outage at next cycle start = %v, want 20ms", w)
	}
}

func TestLostMemberRebuildWindow(t *testing.T) {
	// 100 MiB member at 50 MB/s rebuilds in 2 virtual seconds.
	capB := int64(100 * units.MiB)
	inj := attach(t, &Schedule{Name: "r", Effects: []Effect{
		{Kind: RAIDMemberLost, Member: 5, RebuildMBps: 50, FromSec: 1},
	}})
	if _, lost := inj.LostMember("a", 500*units.Millisecond, 4, capB); lost {
		t.Fatal("lost before the window")
	}
	m, lost := inj.LostMember("a", 2*units.Second, 4, capB)
	if !lost || m != 1 {
		t.Fatalf("mid-rebuild: member %d lost %v, want 1 true (5 %% 4)", m, lost)
	}
	if _, lost := inj.LostMember("a", 4*units.Second, 4, capB); lost {
		t.Fatal("still lost after the rebuild finished")
	}

	// Open-ended loss: no rate, no duration — the member never returns.
	inj = attach(t, &Schedule{Name: "r2", Effects: []Effect{
		{Kind: RAIDMemberLost, Member: 0},
	}})
	if _, lost := inj.LostMember("a", 3600*units.Second, 4, capB); !lost {
		t.Fatal("open-ended loss ended")
	}

	// A rebuild too slow to end inside int64 nanoseconds never ends,
	// instead of wrapping to a window that never opens.
	inj = attach(t, &Schedule{Name: "r3", Effects: []Effect{
		{Kind: RAIDMemberLost, Member: 0, RebuildMBps: 1e-300, FromSec: 1},
	}})
	for _, now := range []units.Duration{units.Second, 3600 * units.Second, 1 << 62} {
		if _, lost := inj.LostMember("a", now, 4, capB); !lost {
			t.Fatalf("member back at %v after an endless rebuild", now)
		}
	}
}

func TestOpErrorBudgetAndDeterminism(t *testing.T) {
	mk := func() *Injector {
		return attach(t, &Schedule{Name: "t", Seed: 42, Effects: []Effect{
			{Kind: TransientError, Prob: 0.5, OpCount: 10},
		}})
	}
	draw := func(in *Injector, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = in.OpError(units.Second) != nil
		}
		return out
	}
	a, b := draw(mk(), 200), draw(mk(), 200)
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] {
			injected++
		}
	}
	if injected != 10 {
		t.Fatalf("injected %d errors, want exactly the OpCount budget of 10", injected)
	}

	// Certain failure, budget 3: exactly the first three ops fail.
	in := attach(t, &Schedule{Name: "t2", Effects: []Effect{
		{Kind: TransientError, Prob: 1, OpCount: 3},
	}})
	for i := 0; i < 3; i++ {
		if in.OpError(0) == nil {
			t.Fatalf("op %d should fail", i)
		}
	}
	if in.OpError(0) != nil {
		t.Fatal("budget exhausted but still failing")
	}
}

func TestForNilOnHealthyEngine(t *testing.T) {
	if inj := For(des.NewEngine()); inj != nil {
		t.Fatalf("healthy engine has injector %v", inj)
	}
}
