package predict

import (
	"fmt"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/units"
)

// PhaseDelta is one phase's estimate on the healthy configuration next to
// the same phase on the configuration running a fault scenario. Usage is
// Eq. 5 evaluated against each state's own device peak — a degraded array
// has a lower ceiling, so usage can rise even as bandwidth falls.
type PhaseDelta struct {
	Phase         *core.PhaseModel
	Healthy       PhaseEstimate
	Degraded      PhaseEstimate
	HealthyUsage  float64 // percent of the healthy BW_PK (direction-matched)
	DegradedUsage float64 // percent of the degraded BW_PK
}

// DegradedComparison is the healthy-vs-degraded analysis of one model on
// one configuration under one fault scenario — the delta table answering
// "which configuration degrades most gracefully for this application?".
type DegradedComparison struct {
	App      string
	Config   string
	Scenario string
	Phases   []PhaseDelta
	// Totals are Eq. 1 sums over phases in each state.
	HealthyTotal  units.Duration
	DegradedTotal units.Duration
	// Device peaks (Eq. 3–4) in each state.
	HealthyPeakW  units.Bandwidth
	HealthyPeakR  units.Bandwidth
	DegradedPeakW units.Bandwidth
	DegradedPeakR units.Bandwidth
}

// Slowdown reports DegradedTotal / HealthyTotal (0 when the healthy total
// is zero).
func (c *DegradedComparison) Slowdown() float64 {
	if c.HealthyTotal <= 0 {
		return 0
	}
	return float64(c.DegradedTotal) / float64(c.HealthyTotal)
}

// CompareDegraded estimates the model on spec twice — healthy, and with
// the fault schedule attached, in one EstimateAll — and pairs the
// per-phase results.
// peakFileSize and peakRS parameterize the IOzone peak measurement
// (Eq. 3–4) used for the usage columns.
//
// The degraded run uses a spec renamed to "<config>+<scenario>", which
// keeps obs peak records, link counters and timeline tracks from
// colliding with the healthy run's.
func CompareDegraded(m *core.Model, spec cluster.Spec, sch *faults.Schedule, peakFileSize, peakRS int64) (*DegradedComparison, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	healthySpec := spec
	healthySpec.Faults = nil
	degradedSpec := spec
	degradedSpec.Faults = sch
	degradedSpec.Name = spec.Name + "+" + sch.Name

	ests, _, err := EstimateAll(m, []cluster.Spec{healthySpec, degradedSpec}, EstimateOptions{})
	if err != nil {
		return nil, err
	}
	healthy, degraded := ests[0], ests[1]
	if len(healthy.Phases) != len(degraded.Phases) {
		return nil, fmt.Errorf("predict: healthy/degraded phase count mismatch %d vs %d",
			len(healthy.Phases), len(degraded.Phases))
	}

	out := &DegradedComparison{
		App:           m.App,
		Config:        spec.Name,
		Scenario:      sch.Name,
		HealthyTotal:  healthy.TotalCH,
		DegradedTotal: degraded.TotalCH,
	}
	out.HealthyPeakW, out.HealthyPeakR = PeakBandwidth(healthySpec, peakFileSize, peakRS)
	out.DegradedPeakW, out.DegradedPeakR = PeakBandwidth(degradedSpec, peakFileSize, peakRS)

	for i := range healthy.Phases {
		hp, dp := healthy.Phases[i], degraded.Phases[i]
		out.Phases = append(out.Phases, PhaseDelta{
			Phase:         hp.Phase,
			Healthy:       hp,
			Degraded:      dp,
			HealthyUsage:  Usage(hp.BWch, directionPeak(hp.Phase, out.HealthyPeakW, out.HealthyPeakR)),
			DegradedUsage: Usage(dp.BWch, directionPeak(dp.Phase, out.DegradedPeakW, out.DegradedPeakR)),
		})
	}
	return out, nil
}

// directionPeak picks the Eq. 5 denominator matching a phase's transfer
// direction; mixed phases compare against the mean of the two peaks, the
// same averaging the paper applies to their characterization.
func directionPeak(pm *core.PhaseModel, peakW, peakR units.Bandwidth) units.Bandwidth {
	switch pm.Direction() {
	case core.Write:
		return peakW
	case core.Read:
		return peakR
	default:
		return (peakW + peakR) / 2
	}
}
