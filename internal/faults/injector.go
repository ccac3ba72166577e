package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"iophases/internal/des"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// ErrTransient is the injected failure for transient-error effects. The
// MPI-IO layer retries it with exponential backoff; it never escapes a
// simulation as a panic.
var ErrTransient = errors.New("faults: transient I/O error")

// Injector is a schedule bound to one engine: the object the service
// layers (disksim, netsim, fsim) consult. One injector belongs to exactly
// one engine and is only touched by its one running process or callback,
// so — like every DES structure — it needs no locking and its rand stream
// is consumed in deterministic event order.
type Injector struct {
	sch *Schedule
	rng *rand.Rand
	// budget holds the remaining transient-error injections per effect
	// (indexed like sch.Effects; 0 for other kinds).
	budget []int

	injected *obs.Counter // faults/transient_errors
	retries  *obs.Counter // faults/retries
	backoff  *obs.Counter // faults/backoff_us
}

// Attach binds a validated schedule to the engine and records the fault
// windows as timeline spans under the configuration's name. cluster.Build
// calls it right after NewEngine, before any device exists, so every
// device constructor sees the injector via For. An invalid schedule is a
// programming error here — all loading paths validate — so Attach panics
// rather than limping into a half-configured simulation.
func Attach(eng *des.Engine, sch *Schedule, configName string) {
	if err := sch.Validate(); err != nil {
		panic(err.Error())
	}
	reg := obs.Default()
	inj := &Injector{
		sch:      sch,
		rng:      rand.New(rand.NewSource(sch.Seed)),
		budget:   make([]int, len(sch.Effects)),
		injected: reg.Counter("faults/transient_errors"),
		retries:  reg.Counter("faults/retries"),
		backoff:  reg.Counter("faults/backoff_us"),
	}
	for i, e := range sch.Effects {
		if e.Kind == TransientError {
			inj.budget[i] = e.OpCount
		}
	}
	eng.SetFaultCtx(inj)
	emitWindows(sch, configName)
}

// For reports the engine's injector, nil when the run is healthy. Devices
// call it once at construction and keep the (possibly nil) handle — the
// healthy service path then costs a single nil check.
func For(eng *des.Engine) *Injector {
	if inj, ok := eng.FaultCtx().(*Injector); ok {
		return inj
	}
	return nil
}

// DiskTime scales a disk's service time by every active slow-disk effect
// matching the disk name.
func (in *Injector) DiskTime(name string, now, t units.Duration) units.Duration {
	for _, e := range in.sch.Effects {
		if e.Kind == SlowDisk && e.active(now) && e.matches(name) {
			t = units.Duration(float64(t) * e.Factor)
		}
	}
	return t
}

// LinkFactor reports the combined service-time multiplier of the active
// link-degraded effects matching the link name (1 when none apply).
// Callers comparing a transfer's two endpoints take the max and apply it
// once, so a path whose uplink and downlink both match is not scaled
// twice.
func (in *Injector) LinkFactor(name string, now units.Duration) float64 {
	f := 1.0
	for _, e := range in.sch.Effects {
		if e.Kind == LinkDegraded && e.active(now) && e.matches(name) {
			f *= e.Factor
		}
	}
	return f
}

// LinkOutage reports how long a transfer starting now on the named link
// must wait for the link to come back up (0 when it is up). Flap cycles
// are a pure function of virtual time — down for DownMs then up for UpMs,
// phase-locked to the window start — so outages are deterministic and
// identical across runs.
func (in *Injector) LinkOutage(name string, now units.Duration) units.Duration {
	var wait units.Duration
	for _, e := range in.sch.Effects {
		if e.Kind != LinkFlap || !e.active(now) || !e.matches(name) {
			continue
		}
		down := units.Duration(e.DownMs * float64(units.Millisecond))
		up := units.Duration(e.UpMs * float64(units.Millisecond))
		pos := (now - units.FromSeconds(e.FromSec)) % (down + up)
		if pos < down {
			if w := down - pos; w > wait {
				wait = w
			}
		}
	}
	return wait
}

// LostMember reports which member (normalized into [0, members)) of the
// named array is lost at now, if any. The degraded window runs from the
// effect start until the rebuild finishes: ForSec when set, otherwise
// member-capacity / RebuildMBps (open-ended when neither is set — the
// operator never swapped the drive — or when the rebuild would end past
// the end of virtual time: the schedule does not know the capacity, so
// validation cannot bound it).
func (in *Injector) LostMember(name string, now units.Duration, members int, memberCapB int64) (int, bool) {
	for _, e := range in.sch.Effects {
		if e.Kind != RAIDMemberLost || !e.matches(name) {
			continue
		}
		from := units.FromSeconds(e.FromSec)
		to := units.Duration(1<<63 - 1)
		switch {
		case e.ForSec > 0:
			to = from + units.FromSeconds(e.ForSec)
		case e.RebuildMBps > 0:
			rebuild := float64(memberCapB) / (e.RebuildMBps * float64(units.MiB)) // seconds
			if ns := rebuild*float64(units.Second) + 0.5; ns < 1<<63 && units.Duration(ns) <= to-from {
				to = from + units.FromSeconds(rebuild)
			}
		}
		if now >= from && now < to {
			return e.Member % members, true
		}
	}
	return 0, false
}

// OpError decides whether a filesystem chunk operation starting now fails
// with an injected transient error. Each draw consumes the injector's
// seeded rand stream in event order; the per-effect OpCount budget bounds
// total injections, which is what guarantees the retry loops above this
// layer terminate.
func (in *Injector) OpError(now units.Duration) error {
	for i, e := range in.sch.Effects {
		if e.Kind != TransientError || in.budget[i] <= 0 || !e.active(now) {
			continue
		}
		if in.rng.Float64() < e.Prob {
			in.budget[i]--
			in.injected.Inc()
			return ErrTransient
		}
	}
	return nil
}

// NoteRetry records one retry and the virtual time it will spend backing
// off. Called by the MPI-IO retry loop just before it sleeps.
func (in *Injector) NoteRetry(backoff units.Duration) {
	in.retries.Inc()
	in.backoff.Add(int64(backoff / units.Microsecond))
}

// spanHorizon caps the rendered end of open-ended fault windows: Perfetto
// needs a finite span, and an hour of virtual time outlasts every
// experiment in the suite.
const spanHorizon = 3600 * units.Second

// emittedWindows dedupes timeline emission per (schedule, config): a sweep
// builds thousands of clusters from one spec, and one span set per
// scenario — not one per engine — is what a human wants to see.
var (
	emittedMu      sync.Mutex
	emittedWindows = map[string]bool{}
)

// emitWindows records each effect window as a span on a "faults" timeline
// track named after the configuration. No-op without a -timeline recorder.
func emitWindows(sch *Schedule, configName string) {
	rec := obs.Timeline()
	if rec == nil {
		return
	}
	key := sch.Name + "\x00" + configName
	emittedMu.Lock()
	if emittedWindows[key] {
		emittedMu.Unlock()
		return
	}
	emittedWindows[key] = true
	emittedMu.Unlock()

	tr := rec.Track("faults", configName)
	for _, e := range sch.Effects {
		from, to := e.window()
		if to > spanHorizon {
			to = spanHorizon
		}
		args := []obs.Arg{{Key: "schedule", Value: sch.Name}}
		switch e.Kind {
		case SlowDisk, LinkDegraded:
			args = append(args, obs.Arg{Key: "factor", Value: e.Factor})
		case RAIDMemberLost:
			args = append(args, obs.Arg{Key: "member", Value: e.Member},
				obs.Arg{Key: "rebuildMBps", Value: e.RebuildMBps})
		case LinkFlap:
			args = append(args, obs.Arg{Key: "downMs", Value: e.DownMs},
				obs.Arg{Key: "upMs", Value: e.UpMs})
		case TransientError:
			args = append(args, obs.Arg{Key: "prob", Value: e.Prob},
				obs.Arg{Key: "opCount", Value: e.OpCount})
		}
		name := string(e.Kind)
		if e.Match != "" {
			name = fmt.Sprintf("%s[%s]", e.Kind, e.Match)
		}
		tr.Span(name, int64(from), int64(to), args...)
	}
}
