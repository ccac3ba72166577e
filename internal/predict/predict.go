// Package predict implements the analysis and evaluation stages of the
// methodology (§III-B, §III-C): replay each phase of an application I/O
// model with IOR on a target configuration to obtain BW_CH, estimate the
// application's I/O time there (Eq. 1–2), compute the device-level peak
// BW_PK via IOzone (Eq. 3–4), system usage (Eq. 5), relative estimation
// errors (Eq. 6–7), and select the configuration with the least I/O time.
// Estimates on several configurations (what-if exploration, selection,
// degraded-mode comparison) run every configuration's distinct replays in
// one fan-out over the sweep pool: see EstimateAll.
package predict

import (
	"fmt"
	"math"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
	"iophases/internal/obs"
	"iophases/internal/replay"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

// PhaseEstimate is one phase's characterized bandwidth and time on a
// target configuration.
type PhaseEstimate struct {
	Phase  *core.PhaseModel
	BWch   units.Bandwidth // IOR transfer rate for the phase's replay
	TimeCH units.Duration  // weight / BW_CH  (Eq. 2)
	// Faithful marks characterization by the phase-faithful replayer
	// rather than an IOR pass average.
	Faithful bool
}

// Estimate is a full model-on-configuration estimation.
type Estimate struct {
	App    string
	Config string
	Phases []PhaseEstimate
	// TotalCH is Eq. 1: the sum over phases.
	TotalCH units.Duration
	// IORRuns counts the benchmark executions needed (identical phases
	// share one run, e.g. BT-IO's fifty write rounds).
	IORRuns int
}

// EstimateOptions tune the analysis stage.
type EstimateOptions struct {
	// FaithfulMixed characterizes multi-operation (W-R) phases with the
	// phase-faithful replay benchmark instead of averaging separate IOR
	// write and read passes — the improvement the paper's §V proposes
	// to cut the ≈50% error on complex phases.
	FaithfulMixed bool
	// FastPath selects how contention-free IOR replays are priced:
	// ModeOff always simulates, ModeOn answers admissible replays in
	// closed form (bit-identical by construction), ModeVerify runs both
	// and panics on any divergence. The zero value defers to the
	// fastpath package default. It governs IOR replays only: a
	// FaithfulMixed replay always runs the DES.
	FastPath fastpath.Mode
}

// EstimateTime replays every phase of the model on the target
// configuration with IOR (§III-B parameterization) and sums Eq. 2 over
// phases. Identical replay specs are benchmarked once and reused.
func EstimateTime(m *core.Model, spec cluster.Spec) (*Estimate, error) {
	return EstimateTimeOpts(m, spec, EstimateOptions{})
}

// EstimateTimeOpts is EstimateTime with explicit options: EstimateAll
// with one configuration.
func EstimateTimeOpts(m *core.Model, spec cluster.Spec, opts EstimateOptions) (*Estimate, error) {
	ests, _, err := EstimateAll(m, []cluster.Spec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return ests[0], nil
}

// EstimateAll estimates the model on every configuration with one
// fan-out. Each configuration's phases are deduplicated first (identical
// replay specs, such as BT-IO's fifty write rounds, are benchmarked once
// and reused); then every configuration's distinct replays run together
// on the sweep worker pool — each replay builds a private cluster
// simulation, so they are independent — and each Estimate is assembled in
// the given order. IORRuns and every per-phase bandwidth are identical at
// any concurrency.
//
// Errors are those of a serial loop over the configurations, and failed
// is the index of the configuration that reported one. A model with a
// phase IOR cannot replay (ior.ValidateModel), or whose phases need more
// ranks than a configuration has cores, is reported before any simulation
// runs; configurations after the first such one are not simulated.
func EstimateAll(m *core.Model, specs []cluster.Spec, opts EstimateOptions) (ests []*Estimate, failed int, err error) {
	// Checks that need no simulation: the first configuration failing
	// one bounds the configurations worth simulating.
	stop, stopErr := len(specs), error(nil)
	if err := ior.ValidateModel(m); err != nil && len(specs) > 0 {
		stop, stopErr = 0, fmt.Errorf("predict: %s: %w", m.App, err)
	}
capacity:
	for i, spec := range specs[:stop] {
		for _, pm := range m.Phases {
			if pm.NP > spec.MaxProcs() {
				stop, stopErr = i, fmt.Errorf("predict: %s phase %d needs %d ranks but %s has capacity %d",
					m.App, pm.ID, pm.NP, spec.Name, spec.MaxProcs())
				break capacity
			}
		}
	}

	type bwKey struct {
		np        int
		block, tx int64
		fpp, coll bool
		dir       core.Direction
		faithful  bool
	}
	type job struct {
		spec     int
		rs       core.ReplaySpec
		pm       *core.PhaseModel
		faithful bool
	}
	// First pass: dedupe each configuration's replay specs in model
	// order. phaseJob[i*len(m.Phases)+k] is the job of configuration i's
	// phase k; firstJob[i] is configuration i's first job. targets[i]
	// encodes configuration i's replay-key prefix once for all its jobs.
	jobs := make([]job, 0, stop*len(m.Phases))
	phaseJob := make([]int, stop*len(m.Phases))
	firstJob := make([]int, stop+1)
	targets := make([]simcache.Target, stop)
	slot := make(map[bwKey]int) // key -> index into jobs
	for i, spec := range specs[:stop] {
		targets[i] = simcache.NewTarget(spec)
		clear(slot)
		firstJob[i] = len(jobs)
		for k, pm := range m.Phases {
			rs := pm.Replay(m.AccessType)
			faithful := opts.FaithfulMixed && len(pm.Ops) > 1
			key := bwKey{rs.NP, rs.BlockPerProc, rs.Transfer, rs.FilePerProc, rs.Collective, rs.Direction, faithful}
			j, ok := slot[key]
			if !ok {
				j = len(jobs)
				slot[key] = j
				jobs = append(jobs, job{spec: i, rs: rs, pm: pm, faithful: faithful})
			}
			phaseJob[i*len(m.Phases)+k] = j
		}
	}
	firstJob[stop] = len(jobs)
	// Second pass: every configuration's distinct replays in one
	// fan-out. Errors ride alongside the bandwidths.
	type bwRes struct {
		bw  units.Bandwidth
		err error
	}
	bws := sweep.Map(jobs, func(_ int, j job) bwRes {
		if j.faithful {
			r, err := replay.Phase(specs[j.spec], m, j.pm)
			return bwRes{r.BW, err}
		}
		return bwRes{runReplay(&targets[j.spec], j.rs, opts.FastPath), nil}
	})
	// Third pass: assemble the estimates in the given order. A
	// configuration's first failing job (in model order) is its error.
	ests = make([]*Estimate, stop)
	for i := range ests {
		for _, b := range bws[firstJob[i]:firstJob[i+1]] {
			if b.err != nil {
				return nil, i, b.err
			}
		}
		est := &Estimate{App: m.App, Config: specs[i].Name, IORRuns: firstJob[i+1] - firstJob[i],
			Phases: make([]PhaseEstimate, len(m.Phases))}
		for k, pm := range m.Phases {
			j := phaseJob[i*len(m.Phases)+k]
			bw := bws[j].bw
			pe := PhaseEstimate{Phase: pm, BWch: bw, Faithful: jobs[j].faithful}
			if bw > 0 {
				pe.TimeCH = units.TransferTime(pm.Weight, bw)
			}
			est.Phases[k] = pe
			est.TotalCH += pe.TimeCH
		}
		recordTelemetry(m, specs[i].Name, est)
		ests[i] = est
	}
	if stopErr != nil {
		return nil, stop, stopErr
	}
	return ests, -1, nil
}

// recordTelemetry reports one "estimate" telemetry row per phase (the
// BW_CH / Time_CH side of report.Telemetry's table) and, when a timeline
// was requested, one span per phase on an estimate track whose spans abut
// at their Eq. 1 cumulative times. No-op unless telemetry is enabled.
func recordTelemetry(m *core.Model, config string, est *Estimate) {
	if !obs.Enabled() {
		return
	}
	tr := obs.Timeline().Track("estimate "+m.App+"@"+config, "phases")
	var cursor units.Duration
	for _, pe := range est.Phases {
		pm := pe.Phase
		obs.RecordPhase(obs.PhaseRecord{
			App:       m.App,
			Config:    config,
			Source:    "estimate",
			Phase:     pm.ID,
			NP:        pm.NP,
			RS:        pm.RequestSize(),
			Weight:    pm.Weight,
			Dir:       string(pm.Direction()),
			BWCHMBps:  pe.BWch.MBpsValue(),
			TimeCHSec: pe.TimeCH.Seconds(),
			TimeMDSec: pm.MeasuredSec,
		})
		tr.Span(fmt.Sprintf("phase %d", pm.ID), int64(cursor), int64(cursor+pe.TimeCH),
			obs.Arg{Key: "weight", Value: pm.Weight},
			obs.Arg{Key: "rs", Value: pm.RequestSize()},
			obs.Arg{Key: "np", Value: pm.NP},
			obs.Arg{Key: "bwMBps", Value: pe.BWch.MBpsValue()},
			obs.Arg{Key: "dir", Value: string(pm.Direction())})
		cursor += pe.TimeCH
	}
}

// runReplay executes the IOR replica for a replay spec on a target
// configuration and reports the phase's characterized bandwidth. Mixed
// phases average the write and read rates — the paper's stated
// treatment, and the documented source of its ≈50% error on MADBench2's
// phase 3 (§V). Runs are memoized through the content-addressed
// simcache: an identical (spec, params) replay anywhere in the process —
// another variant of a sweep, another table of the experiment suite —
// returns the stored result without simulating.
func runReplay(t *simcache.Target, rs core.ReplaySpec, mode fastpath.Mode) units.Bandwidth {
	res := t.RunIOR(ior.FromReplay(rs), mode)
	switch rs.Direction {
	case core.Write:
		return res.WriteBW
	case core.Read:
		return res.ReadBW
	default: // Mixed
		return (res.WriteBW + res.ReadBW) / 2
	}
}

// Usage is Eq. 5: the percentage of the device-peak capacity the
// application's measured bandwidth consumes.
func Usage(bwMD, bwPK units.Bandwidth) float64 {
	if bwPK <= 0 {
		return 0
	}
	return float64(bwMD) / float64(bwPK) * 100
}

// RelativeError is Eq. 6–7 applied to any characterized-vs-measured pair
// (bandwidths or times), in percent.
func RelativeError(ch, md float64) float64 {
	if md == 0 {
		return math.Inf(1)
	}
	return math.Abs(ch-md) / md * 100
}

// PeakBandwidth measures BW_PK for a configuration (Eq. 3–4) with the
// IOzone replica: per-I/O-node maxima over access patterns, summed across
// nodes. fileSize should exceed the node's cache (the paper's 2×RAM rule).
// Results are memoized per (spec, sizes) through the simcache.
func PeakBandwidth(spec cluster.Spec, fileSize, requestSize int64) (write, read units.Bandwidth) {
	write, read = simcache.PeakBandwidth(spec, fileSize, requestSize)
	// Register the peak so report.Telemetry can derive SystemUsage (Eq. 5)
	// for this configuration's phases without re-running IOzone.
	obs.RecordPeak(spec.Name, write.MBpsValue(), read.MBpsValue())
	return write, read
}

// GroupComparison compares characterized vs measured time for a phase
// group (Tables XII–XIV group BT-IO as "Phase 1–50" and "Phase 51").
type GroupComparison struct {
	Label   string
	TimeCH  units.Duration
	TimeMD  units.Duration
	RelErr  float64 // percent
	Weight  int64
	NPhases int
}

// CompareByFamily groups the estimate's phases by family and compares
// against the measured times carried in a model extracted from a run on
// the same target configuration. The two models must have the same shape;
// a mismatch (comparing against the wrong run's model) is reported as an
// error rather than a panic.
func CompareByFamily(est *Estimate, measured *core.Model) ([]GroupComparison, error) {
	if len(measured.Phases) != len(est.Phases) {
		return nil, fmt.Errorf("predict: phase count mismatch: measured model has %d phases, estimate has %d (models extracted from different runs?)",
			len(measured.Phases), len(est.Phases))
	}
	type agg struct {
		label   string
		ch, md  units.Duration
		weight  int64
		count   int
		firstID int
		lastID  int
	}
	var groups []*agg
	index := make(map[int]*agg)
	for i, pe := range est.Phases {
		famID := pe.Phase.FamilyID
		var g *agg
		if famID != 0 {
			if got, ok := index[famID]; ok {
				g = got
			}
		}
		if g == nil {
			g = &agg{firstID: pe.Phase.ID}
			groups = append(groups, g)
			if famID != 0 {
				index[famID] = g
			}
		}
		g.ch += pe.TimeCH
		g.md += units.FromSeconds(measured.Phases[i].MeasuredSec)
		g.weight += pe.Phase.Weight
		g.count++
		g.lastID = pe.Phase.ID
	}
	var out []GroupComparison
	for _, g := range groups {
		label := fmt.Sprintf("Phase %d", g.firstID)
		if g.count > 1 {
			label = fmt.Sprintf("Phase %d-%d", g.firstID, g.lastID)
		}
		out = append(out, GroupComparison{
			Label:   label,
			TimeCH:  g.ch,
			TimeMD:  g.md,
			RelErr:  RelativeError(g.ch.Seconds(), g.md.Seconds()),
			Weight:  g.weight,
			NPhases: g.count,
		})
	}
	return out, nil
}

// Choice is one configuration's estimated total.
type Choice struct {
	Config string
	Total  units.Duration
	Est    *Estimate
}

// SelectConfig estimates the model on every candidate and returns the
// choices sorted as given plus the index of the minimum — "the
// configuration with less I/O time" (§III-B). All candidates' replays
// share one fan-out (EstimateAll); the returned order and tie-breaking
// (first minimum wins) match the serial loop exactly. The first
// candidate's error (in the given order) aborts the selection.
func SelectConfig(m *core.Model, specs []cluster.Spec) (best int, choices []Choice, err error) {
	ests, _, err := EstimateAll(m, specs, EstimateOptions{})
	if err != nil {
		return -1, nil, err
	}
	choices = make([]Choice, 0, len(ests))
	for i, est := range ests {
		choices = append(choices, Choice{Config: specs[i].Name, Total: est.TotalCH, Est: est})
	}
	best = -1
	for i := range choices {
		if best < 0 || choices[i].Total < choices[best].Total {
			best = i
		}
	}
	return best, choices, nil
}
