// Package faults is a seeded, deterministic fault-schedule engine for the
// simulated I/O subsystems. A Schedule is a set of virtual-time windows,
// each carrying one effect — a slowed disk, a lost RAID member under
// rebuild, a degraded or flapping link, or transient I/O errors — and the
// service layers (disksim, netsim, fsim) consult an Injector attached to
// their engine on every request. With no schedule attached every consult
// is a single nil check, so healthy runs are byte-identical to a build
// without this package.
//
// Determinism rules (DESIGN.md §9):
//
//   - Effects are pure functions of virtual time wherever possible
//     (windows, factors, flap duty cycles). The only randomness —
//     transient-error draws — comes from a per-engine rand stream seeded
//     from Schedule.Seed, consulted in discrete-event order by the
//     engine's one running process or callback. Two engines built from
//     the same (spec, schedule) therefore inject identical fault
//     sequences, so a sweep at any -j reproduces the -j 1 results bit for
//     bit.
//
//   - A schedule is part of a configuration's physical identity: it rides
//     on cluster.Spec, so the simcache content-address fingerprint keys
//     healthy and degraded runs separately and a degraded replay can never
//     be served a healthy run's cached result.
package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"iophases/internal/units"
)

// Kind names an effect type.
type Kind string

// Effect kinds.
const (
	// SlowDisk multiplies matching disks' service time by Factor inside
	// the window (a failing spindle, a firmware-throttled drive).
	SlowDisk Kind = "slow-disk"
	// RAIDMemberLost fails member Member of matching RAID5 arrays at
	// From. The array serves degraded — reconstruction reads, skipped
	// writes — until the rebuild finishes (member capacity / RebuildMBps;
	// ForSec, when positive, overrides that duration). RAID0 arrays have
	// no redundancy and ignore the effect.
	RAIDMemberLost Kind = "raid-member-lost"
	// LinkDegraded multiplies matching links' transfer duration by Factor
	// inside the window (autonegotiation fallback, a congested uplink).
	LinkDegraded Kind = "link-degraded"
	// LinkFlap takes matching links down for DownMs then up for UpMs,
	// cycling through the window; transfers arriving during an outage
	// wait for the next up instant.
	LinkFlap Kind = "link-flap"
	// TransientError makes filesystem chunk operations inside the window
	// fail with probability Prob, at most OpCount times in total. Failed
	// operations are retried by the MPI-IO layer with exponential
	// backoff; the finite budget guarantees retries terminate.
	TransientError Kind = "transient-error"
)

// Effect is one fault window. Fields beyond Kind/Match/FromSec/ForSec are
// kind-specific; Validate enforces which apply.
type Effect struct {
	Kind Kind `json:"kind"`
	// Match restricts the effect to components whose name contains the
	// substring (disk, array or link names as built by cluster.Build,
	// e.g. "ion00"). Empty matches every component the kind applies to.
	Match string `json:"match,omitempty"`
	// FromSec is the window start in virtual seconds.
	FromSec float64 `json:"fromSec"`
	// ForSec is the window length in virtual seconds; <= 0 means the
	// effect lasts for the rest of the run.
	ForSec float64 `json:"forSec,omitempty"`

	// Factor scales service time for slow-disk / link-degraded (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Member is the lost member index for raid-member-lost.
	Member int `json:"member,omitempty"`
	// RebuildMBps is the rebuild rate for raid-member-lost; the degraded
	// window ends after member-capacity / rate. <= 0 with ForSec <= 0
	// means the member never comes back.
	RebuildMBps float64 `json:"rebuildMBps,omitempty"`
	// DownMs / UpMs are the link-flap duty cycle.
	DownMs float64 `json:"downMs,omitempty"`
	UpMs   float64 `json:"upMs,omitempty"`
	// Prob is the per-operation transient-error probability in [0, 1].
	Prob float64 `json:"prob,omitempty"`
	// OpCount is the transient-error budget (total injected failures).
	// A schedule's budgets sum to at most 100,000.
	OpCount int `json:"opCount,omitempty"`
}

// window reports the effect's active interval. Open-ended windows extend
// to the end of virtual time.
func (e Effect) window() (from, to units.Duration) {
	from = units.FromSeconds(e.FromSec)
	if e.ForSec > 0 {
		return from, from + units.FromSeconds(e.ForSec)
	}
	return from, units.Duration(1<<63 - 1)
}

// active reports whether now falls inside the effect window.
func (e Effect) active(now units.Duration) bool {
	from, to := e.window()
	return now >= from && now < to
}

// matches reports whether the effect applies to the named component.
func (e Effect) matches(name string) bool {
	return e.Match == "" || strings.Contains(name, e.Match)
}

// maxFactor caps the product of a schedule's slow-disk factors, and of
// its link-degraded factors: an hour of service time scaled by 1e6 still
// fits the int64 nanoseconds virtual time is stored in.
const maxFactor = 1e6

// maxFlap caps a link flap's down and up times. Every transfer may wait
// out one outage, so an outage that merely fits in int64 nanoseconds
// still wraps the clock once a second transfer meets it; an hour-long
// outage takes millions of transfers to do that. A link down for longer
// is lost, not flapping.
const maxFlap = 3600 * units.Second

// maxTransientOps caps the sum of a schedule's transient-error budgets.
// Every simulated cluster gets the whole budget, and at prob 1 every
// request fails and retries until it runs out, so the budget sets how
// long a run spends retrying: on 2 vCPUs, `experiments -run fig3 -quick`
// takes about 1.7 s under a budget of 1e5 and was still running after
// 20 s under 1e9.
const maxTransientOps = 100_000

// validate checks one effect's kind-specific fields. Every instant the
// effect implies (its window bounds, a flap's first cycle) must fit in
// int64 nanoseconds, or the simulation clock would wrap.
func (e Effect) validate(i int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("faults: effect %d (%s): %s", i, e.Kind, fmt.Sprintf(format, args...))
	}
	// nanos converts a count of unit (one second or millisecond) to a
	// duration as the injector does, reporting false past int64.
	nanos := func(v float64, unit units.Duration, round float64) (units.Duration, bool) {
		ns := v*float64(unit) + round
		return units.Duration(ns), ns < 1<<63
	}
	if e.FromSec < 0 {
		return bad("fromSec %v is negative", e.FromSec)
	}
	if e.ForSec < 0 {
		return bad("forSec %v is negative: the window would end before it starts (omit or use 0 for open-ended)", e.ForSec)
	}
	from, ok := nanos(e.FromSec, units.Second, 0.5)
	if !ok {
		return bad("fromSec %v is past the end of virtual time", e.FromSec)
	}
	if length, ok := nanos(e.ForSec, units.Second, 0.5); !ok || length > math.MaxInt64-from {
		return bad("window %vs + %vs ends past the end of virtual time", e.FromSec, e.ForSec)
	}
	switch e.Kind {
	case SlowDisk, LinkDegraded:
		if e.Factor <= 1 {
			return bad("factor %v must exceed 1", e.Factor)
		}
	case RAIDMemberLost:
		if e.Member < 0 {
			return bad("member %d is negative", e.Member)
		}
	case LinkFlap:
		if e.DownMs <= 0 || e.UpMs <= 0 {
			return bad("downMs/upMs must both be positive (got %v/%v)", e.DownMs, e.UpMs)
		}
		down, okDown := nanos(e.DownMs, units.Millisecond, 0)
		up, okUp := nanos(e.UpMs, units.Millisecond, 0)
		if down < 1 || up < 1 {
			return bad("downMs/upMs %v/%v must each be at least 1 ns", e.DownMs, e.UpMs)
		}
		if !okDown || !okUp || down > maxFlap || up > maxFlap {
			return bad("downMs/upMs %v/%v must each be at most %v", e.DownMs, e.UpMs, maxFlap)
		}
		if up > math.MaxInt64-from-down {
			return bad("downMs/upMs %v/%v: the first cycle ends past the end of virtual time", e.DownMs, e.UpMs)
		}
	case TransientError:
		if e.Prob <= 0 || e.Prob > 1 {
			return bad("prob %v outside (0, 1]", e.Prob)
		}
		if e.OpCount <= 0 {
			return bad("opCount %d must be positive: the finite budget is what guarantees retries terminate", e.OpCount)
		}
	default:
		return bad("unknown kind")
	}
	return nil
}

// Schedule is a named, seeded set of fault effects — one degraded-mode
// scenario. The zero Seed is valid (a fixed default stream).
type Schedule struct {
	Name    string   `json:"name"`
	Seed    int64    `json:"seed,omitempty"`
	Effects []Effect `json:"effects"`
}

// Validate checks the schedule. Every loading path (files, presets,
// CompareDegraded) validates before any simulation is built.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("faults: nil schedule")
	}
	if len(s.Effects) == 0 {
		return fmt.Errorf("faults: schedule %q has no effects", s.Name)
	}
	disk, link, ops := 1.0, 1.0, 0
	for i, e := range s.Effects {
		if err := e.validate(i); err != nil {
			return err
		}
		switch e.Kind {
		case SlowDisk:
			disk *= e.Factor
		case LinkDegraded:
			link *= e.Factor
		case TransientError:
			if e.OpCount > maxTransientOps-ops {
				return fmt.Errorf("faults: schedule %q: transient-error opCounts sum past %d", s.Name, maxTransientOps)
			}
			ops += e.OpCount
		}
	}
	if !(disk <= maxFactor && link <= maxFactor) {
		return fmt.Errorf("faults: schedule %q: slow-disk factors multiply to %v and link-degraded factors to %v; each product may be at most %v",
			s.Name, disk, link, maxFactor)
	}
	return nil
}

// Load reads a scenario JSON file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(path, ".json")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// presets are the named built-in scenarios.
func presets() map[string]*Schedule {
	return map[string]*Schedule{
		// A spindle serving at a third of its rate for the whole run.
		"slow-disk": {
			Name: "slow-disk",
			Effects: []Effect{
				{Kind: SlowDisk, Factor: 3},
			},
		},
		// One RAID member lost at t=0, rebuilding at 80 MB/s — the
		// state a real array spends hours in after a drive swap.
		"raid-rebuild": {
			Name: "raid-rebuild",
			Effects: []Effect{
				{Kind: RAIDMemberLost, Member: 0, RebuildMBps: 80},
			},
		},
		// A NIC negotiated down plus periodic short outages.
		"flaky-net": {
			Name: "flaky-net",
			Effects: []Effect{
				{Kind: LinkDegraded, Factor: 2},
				{Kind: LinkFlap, DownMs: 20, UpMs: 480},
			},
		},
		// Sporadic failed server requests, retried by the MPI-IO layer.
		"transient-errors": {
			Name: "transient-errors",
			Seed: 1,
			Effects: []Effect{
				{Kind: TransientError, Prob: 0.05, OpCount: 200},
			},
		},
		// Everything at once: the cluster on its worst day.
		"degraded-mix": {
			Name: "degraded-mix",
			Seed: 1,
			Effects: []Effect{
				{Kind: SlowDisk, Factor: 2},
				{Kind: RAIDMemberLost, Member: 0, RebuildMBps: 80},
				{Kind: LinkDegraded, Factor: 1.5},
				{Kind: TransientError, Prob: 0.02, OpCount: 100},
			},
		},
	}
}

// Preset returns a named built-in scenario.
func Preset(name string) (*Schedule, bool) {
	s, ok := presets()[name]
	return s, ok
}

// PresetNames lists the built-in scenario names, sorted.
func PresetNames() []string {
	m := presets()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve turns a -faults argument into a validated schedule: a preset
// name first, otherwise a scenario JSON path.
func Resolve(arg string) (*Schedule, error) {
	if s, ok := Preset(arg); ok {
		return s, nil
	}
	s, err := Load(arg)
	if err != nil {
		if os.IsNotExist(err) || strings.Contains(err.Error(), "no such file") {
			return nil, fmt.Errorf("faults: %q is neither a preset (%s) nor a readable scenario file",
				arg, strings.Join(PresetNames(), ", "))
		}
		return nil, err
	}
	return s, nil
}
