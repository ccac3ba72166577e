// Package coexec simulates true multi-application co-execution: N
// applications, each replayed phase-for-phase from its extracted model,
// run inside ONE discrete-event engine sharing one fabric and one
// filesystem/disk stack. Bandwidth sharing needs no new formula — the
// existing link and device queues ARE the model: concurrent phases queue
// behind each other at the NIC and the disk exactly as the isolated
// simulations do, so contention emerges from the same mechanisms Tables
// IX–X rest on. This is the simulated ground truth the analytic planner
// (internal/schedule) is cross-validated against: the paper's §IV-A
// claim — that phase timelines let a scheduler interleave applications'
// I/O into each other's compute gaps — becomes a measurable statement
// about simulated Time_io.
//
// Per-application attribution rides the fsim.Account mechanism: every
// handle an application opens carries its account, so each app's share of
// the shared filesystem's traffic is split exactly — the accounts' byte
// totals sum to FS.Traffic() by construction, and reports verify that
// conservation law.
package coexec

import (
	"fmt"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fsim"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/obs"
	"iophases/internal/replay"
	"iophases/internal/runner"
	"iophases/internal/units"
)

// App is one application in a co-execution: an extracted model plus the
// start offset the schedule assigns it.
type App struct {
	Name      string // label for reports and results (defaults to Model.App)
	Model     *core.Model
	OffsetSec float64 // start delay relative to the co-execution's t=0
}

// Spec is a complete co-execution scenario: which applications share
// which cluster, at which offsets. It is the unit the simcache
// fingerprints — two specs with equal fingerprints replay identically.
type Spec struct {
	Config cluster.Spec
	Apps   []App
}

// AppResult is one application's outcome and attribution.
type AppResult struct {
	Name      string
	OffsetSec float64
	// TimeIO is the application's Eq. 1 total under contention: per phase
	// the maximum per-rank busy time, summed over phases.
	TimeIO units.Duration
	// PhaseIO is the per-phase breakdown of TimeIO, in model phase order.
	PhaseIO []units.Duration
	// Start and End span the app's activity on the shared wall clock.
	Start, End units.Duration
	// Acct is the app's exact share of the shared filesystem's traffic.
	Acct fsim.Account
}

// Result is the outcome of one co-execution.
type Result struct {
	Apps []AppResult
	// TotalTimeIO sums the apps' contended Time_io — the objective the
	// co-scheduling explorer minimizes.
	TotalTimeIO units.Duration
	// Makespan is when the last application finished.
	Makespan units.Duration
	// Shared-subsystem totals, for reconciling per-app attribution:
	// FSWritten/FSRead must equal the sums of the apps' accounts.
	FSWritten, FSRead int64
	// WireBytes/WireMessages are the fabric's unique wire traffic (every
	// non-local message counted once, at its uplink).
	WireBytes, WireMessages int64
}

// Validate checks a spec without running it: every app needs a model with
// phase timing (co-execution replays phases at their modeled start
// times), a feasible rank count, a non-negative offset, and phases whose
// offset functions address no negative offset (replay.CheckOffsets).
// Returned errors name the offending app so CLIs can print them directly.
func Validate(spec Spec) error {
	if len(spec.Apps) == 0 {
		return fmt.Errorf("coexec: no applications")
	}
	total := 0
	for i, a := range spec.Apps {
		m := a.Model
		if m == nil {
			return fmt.Errorf("coexec: app %d has no model", i)
		}
		if len(m.Phases) == 0 {
			return fmt.Errorf("coexec: app %d (%s) has no phases", i, appName(a))
		}
		if a.OffsetSec < 0 {
			return fmt.Errorf("coexec: app %d (%s) has negative offset %g", i, appName(a), a.OffsetSec)
		}
		np := m.Phases[0].NP
		for _, pm := range m.Phases {
			if pm.NP != np {
				return fmt.Errorf("coexec: app %d (%s) mixes rank counts %d and %d", i, appName(a), np, pm.NP)
			}
			if pm.MeasuredSec <= 0 {
				return fmt.Errorf("coexec: app %d (%s) phase %d lacks timing (rescaled models cannot co-execute)",
					i, appName(a), pm.ID)
			}
			if err := replay.CheckOffsets(appName(a), pm); err != nil {
				return fmt.Errorf("coexec: app %d: %w", i, err)
			}
		}
		total += np
	}
	if max := spec.Config.MaxProcs(); total > max {
		return fmt.Errorf("coexec: %d total ranks exceed %s capacity %d", total, spec.Config.Name, max)
	}
	return nil
}

func appName(a App) string {
	if a.Name != "" {
		return a.Name
	}
	return a.Model.App
}

// appState accumulates one app's per-rank, per-phase measurements while
// its ranks run. Plain slices: the engine executes every proc on one
// goroutine, so no synchronization is needed.
type appState struct {
	acct       fsim.Account
	phaseStart [][]units.Duration // [phase][rank]
	phaseEnd   [][]units.Duration
}

// Run executes the co-execution and reports per-app attribution plus
// shared-subsystem totals. The run is deterministic: same spec, same
// result, bit for bit.
func Run(spec Spec) (*Result, error) {
	if err := Validate(spec); err != nil {
		return nil, err
	}
	states := make([]*appState, len(spec.Apps))
	jobs := make([]runner.Job, len(spec.Apps))
	for i, a := range spec.Apps {
		i, a := i, a
		m := a.Model
		np := m.Phases[0].NP
		st := &appState{
			acct:       fsim.Account{Name: appName(a)},
			phaseStart: make([][]units.Duration, len(m.Phases)),
			phaseEnd:   make([][]units.Duration, len(m.Phases)),
		}
		for p := range m.Phases {
			st.phaseStart[p] = make([]units.Duration, np)
			st.phaseEnd[p] = make([]units.Duration, np)
		}
		states[i] = st
		access := mpiio.Shared
		if m.AccessType == "unique" {
			access = mpiio.Unique
		}
		jobs[i] = runner.Job{
			Name:       appName(a),
			NP:         np,
			StartDelay: units.FromSeconds(a.OffsetSec),
			Prog: func(sys *mpiio.System) func(*mpi.Rank) {
				sys.Account = &st.acct
				return func(r *mpi.Rank) {
					appStart := r.Now() // == StartDelay: runner has already queued us
					for p, pm := range m.Phases {
						// Reproduce the app's compute gap: the phase begins at its
						// modeled start time on the app's own clock. Under heavy
						// contention a previous phase may overrun its slot; then the
						// next starts immediately — exactly an application whose
						// compute is fixed but whose I/O stretched.
						if target := appStart + units.FromSeconds(pm.StartSec); target > r.Now() {
							r.Compute(target - r.Now())
						}
						f := sys.Open(r, fmt.Sprintf("/coexec.%d.phase%d", i, pm.ID), access)
						r.Barrier()
						start := r.Now()
						replay.PhaseOps(r, f, pm)
						st.phaseStart[p][r.ID()] = start
						st.phaseEnd[p][r.ID()] = r.Now()
						f.Close(r)
					}
				}
			},
		}
	}

	jobResults, c := runner.RunConcurrent(spec.Config, jobs, false)

	res := &Result{Apps: make([]AppResult, len(spec.Apps))}
	tl := obs.Timeline()
	for i, a := range spec.Apps {
		st := states[i]
		ar := AppResult{
			Name:      appName(a),
			OffsetSec: a.OffsetSec,
			Start:     jobResults[i].Start,
			End:       jobResults[i].End,
			Acct:      st.acct,
			PhaseIO:   make([]units.Duration, len(a.Model.Phases)),
		}
		for p, pm := range a.Model.Phases {
			var max units.Duration
			spanStart, spanEnd := st.phaseStart[p][0], st.phaseEnd[p][0]
			for rank := range st.phaseStart[p] {
				s, e := st.phaseStart[p][rank], st.phaseEnd[p][rank]
				if d := e - s; d > max {
					max = d
				}
				if s < spanStart {
					spanStart = s
				}
				if e > spanEnd {
					spanEnd = e
				}
			}
			ar.PhaseIO[p] = max
			ar.TimeIO += max
			if tl != nil {
				tl.Track("coexec "+ar.Name, "phases").
					Span(fmt.Sprintf("phase %d", pm.ID), int64(spanStart), int64(spanEnd),
						obs.Arg{Key: "weight", Value: pm.Weight},
						obs.Arg{Key: "busy_max_ns", Value: int64(max)})
			}
		}
		res.Apps[i] = ar
		res.TotalTimeIO += ar.TimeIO
		if ar.End > res.Makespan {
			res.Makespan = ar.End
		}
	}
	res.FSWritten, res.FSRead = c.FS.Traffic()
	res.WireBytes, res.WireMessages = c.Fabric.WireStats()
	if h := obs.Hot(); h != nil {
		h.Counter("coexec/runs").Inc()
		h.Counter("coexec/apps").Add(int64(len(spec.Apps)))
		h.Counter("coexec/busy_ns").Add(int64(res.TotalTimeIO))
	}
	return res, nil
}
