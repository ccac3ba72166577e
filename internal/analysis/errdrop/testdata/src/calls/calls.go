// Package calls is the errdrop corpus: discarded versus handled errors
// from the hardened replay/predict/telemetry APIs.
package calls

import (
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/predict"
	"iophases/internal/replay"
	"iophases/internal/report"
)

func drops(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) {
	replay.Phase(spec, m, pm)     // want `error result of replay.Phase is discarded`
	predict.EstimateTime(m, spec) // want `error result of predict.EstimateTime is discarded`
	report.SaveTelemetry("", "")  // want `error result of report.SaveTelemetry is discarded`
}

func blanks(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) {
	_, _ = predict.EstimateTime(m, spec) // want `error result of predict.EstimateTime is assigned to _`
	res, _ := replay.Phase(spec, m, pm)  // want `error result of replay.Phase is assigned to _`
	_ = res
}

func deferred() {
	go report.SaveTelemetry("", "")    // want `error result of report.SaveTelemetry is discarded by go statement`
	defer report.SaveTelemetry("", "") // want `error result of report.SaveTelemetry is discarded by defer statement`
}

// handled is the sanctioned shape: every error reaches a name.
func handled(spec cluster.Spec, m *core.Model, pm *core.PhaseModel) (replay.Result, error) {
	if _, err := predict.EstimateTime(m, spec); err != nil {
		return replay.Result{}, err
	}
	if err := report.SaveTelemetry("", ""); err != nil {
		return replay.Result{}, err
	}
	return replay.Phase(spec, m, pm)
}

// nonError results may be discarded freely — only the error matters.
func nonError(spec cluster.Spec, fileSize, rs int64) {
	predict.PeakBandwidth(spec, fileSize, rs)
}

// allowed pins the suppression path for a deliberate discard.
func allowed() {
	//iovet:allow(errdrop) corpus fixture: best-effort save on an exit path
	report.SaveTelemetry("", "")
}
