// Phase telemetry: a run-wide log of per-phase measurements and estimates,
// the data behind report.Telemetry's table. The analysis pipeline records
// one row per phase per stage — "measured" rows when a trace is decomposed
// (internal/phase), "estimate" rows when a model is replayed on a target
// configuration (internal/predict) — and PeakBandwidth results register per
// configuration, so the renderer can put BW_CH, SystemUsage (Eq. 5) and
// relative error (Eq. 6–7) side by side without re-running anything.
package obs

import (
	"cmp"
	"slices"
	"sync"
)

// PhaseRecord is one phase's telemetry row from one pipeline stage.
type PhaseRecord struct {
	App    string `json:"app"`
	Config string `json:"config"` // configuration measured or estimated on
	Source string `json:"source"` // "measured" | "estimate"
	Phase  int    `json:"phase"`  // idPH
	NP     int    `json:"np"`
	RS     int64  `json:"rs"`     // request size in bytes
	Weight int64  `json:"weight"` // bytes
	Dir    string `json:"dir"`    // "W" | "R" | "W-R"

	BWMDMBps  float64 `json:"bwMdMBps,omitempty"`  // measured bandwidth
	BWCHMBps  float64 `json:"bwChMBps,omitempty"`  // characterized bandwidth
	TimeMDSec float64 `json:"timeMdSec,omitempty"` // measured phase time
	TimeCHSec float64 `json:"timeChSec,omitempty"` // estimated phase time (Eq. 2)
}

// phaseLogCap bounds the log: a full experiment run records a few thousand
// rows; beyond the cap new rows are dropped (and counted) rather than
// growing without bound.
const phaseLogCap = 16384

var (
	phaseMu      sync.Mutex
	phaseLog     []PhaseRecord
	phaseDropped int64
	peaks        = map[string][2]float64{} // config -> {write, read} MB/s
)

// RecordPhase appends a telemetry row when run telemetry is enabled.
func RecordPhase(pr PhaseRecord) {
	if !Enabled() {
		return
	}
	phaseMu.Lock()
	defer phaseMu.Unlock()
	if len(phaseLog) >= phaseLogCap {
		phaseDropped++
		return
	}
	phaseLog = append(phaseLog, pr)
}

// RecordPeak registers a configuration's device peak (Eq. 3–4) so Usage
// columns can be derived for that configuration's phases.
func RecordPeak(config string, writeMBps, readMBps float64) {
	if !Enabled() {
		return
	}
	phaseMu.Lock()
	defer phaseMu.Unlock()
	peaks[config] = [2]float64{writeMBps, readMBps}
}

// PeakFor reports a configuration's recorded device peak in MB/s.
func PeakFor(config string) (writeMBps, readMBps float64, ok bool) {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	p, ok := peaks[config]
	return p[0], p[1], ok
}

// Phases returns the recorded rows sorted on every field — app, config,
// source, np and phase id first — with exact duplicates collapsed. A total
// order makes the result independent of recording order, so the dump is
// the same at any -j: rows that tie on the leading fields (the same phase
// of two different traces) sort on their remaining fields, and every
// duplicate ends up next to its twin.
func Phases() []PhaseRecord {
	phaseMu.Lock()
	rows := append([]PhaseRecord(nil), phaseLog...)
	phaseMu.Unlock()
	slices.SortFunc(rows, func(a, b PhaseRecord) int {
		return cmp.Or(
			cmp.Compare(a.App, b.App),
			cmp.Compare(a.Config, b.Config),
			cmp.Compare(a.Source, b.Source),
			cmp.Compare(a.NP, b.NP),
			cmp.Compare(a.Phase, b.Phase),
			cmp.Compare(a.RS, b.RS),
			cmp.Compare(a.Weight, b.Weight),
			cmp.Compare(a.Dir, b.Dir),
			cmp.Compare(a.BWMDMBps, b.BWMDMBps),
			cmp.Compare(a.BWCHMBps, b.BWCHMBps),
			cmp.Compare(a.TimeMDSec, b.TimeMDSec),
			cmp.Compare(a.TimeCHSec, b.TimeCHSec),
		)
	})
	return slices.Compact(rows)
}

// ResetTelemetry clears the phase log and peak registrations (tests).
func ResetTelemetry() {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	phaseLog = nil
	phaseDropped = 0
	peaks = map[string][2]float64{}
}
