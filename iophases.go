// Package iophases reproduces "Modeling Parallel Scientific Applications
// through their Input/Output Phases" (Méndez, Rexachs, Luque — IEEE CLUSTER
// 2012): a methodology for evaluating parallel I/O subsystems through an
// application I/O model that is independent of the subsystem.
//
// The workflow mirrors the paper's three stages:
//
//  1. Characterization — run an application once on any configuration with
//     the interposition tracer (TraceMADBench2, TraceBTIO, or Trace for a
//     custom program) and extract its I/O model (Extract): metadata, I/O
//     phases with weights, and closed-form initial-offset functions.
//  2. Analysis — replay only the phases with the IOR replica on a target
//     configuration (EstimateTime) to predict the application's I/O time
//     there (Eq. 1–2), without running the application again.
//  3. Evaluation — compare predictions against measurements
//     (CompareByFamily, RelativeError), compute device-peak utilization
//     (PeakBandwidth, Usage — Eq. 3–5), and pick the configuration with the
//     least I/O time (SelectConfig).
//
// Everything executes on a deterministic discrete-event simulation of the
// paper's four I/O configurations (ConfigA, ConfigB, ConfigC, Finisterrae);
// see DESIGN.md for the substitution inventory.
package iophases

import (
	"fmt"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/apps/roms"
	"iophases/internal/charz"
	"iophases/internal/cluster"
	"iophases/internal/coexec"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/iozone"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/predict"
	"iophases/internal/runner"
	"iophases/internal/schedule"
	"iophases/internal/simcache"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// Re-exported core types. The aliases keep the public API surface in one
// place while the implementation lives in internal packages.
type (
	// Config describes a cluster I/O configuration (Tables VI–VII).
	Config = cluster.Spec
	// Model is the application I/O abstract model (the paper's
	// contribution).
	Model = core.Model
	// PhaseModel is one I/O phase of a model.
	PhaseModel = core.PhaseModel
	// TraceSet is a PAS2P-style multi-rank trace.
	TraceSet = trace.Set
	// RunResult is the product of a characterization run.
	RunResult = runner.Result
	// RunOptions select tracing, monitoring and drain behaviour.
	RunOptions = runner.Options
	// Estimate is a model-on-configuration I/O time prediction.
	Estimate = predict.Estimate
	// GroupComparison is a characterized-vs-measured phase-group row
	// (Tables XII–XIV).
	GroupComparison = predict.GroupComparison
	// MADBenchParams configure the MADBench2 kernel.
	MADBenchParams = madbench.Params
	// BTIOParams configure the NAS BT-IO kernel.
	BTIOParams = btio.Params
	// BTIOClass is a NAS problem class (A, B, C, D, W).
	BTIOClass = btio.Class
	// ROMSParams configure the ROMS-style ocean-model kernel (history
	// records through the HDF5-like layer, multi-file output).
	ROMSParams = roms.Params
	// IORParams mirror the IOR benchmark's options (Table III).
	IORParams = ior.Params
	// IORResult carries IOR's output metrics (Table V).
	IORResult = ior.Result
	// IOzoneParams mirror the IOzone benchmark's options (Table IV).
	IOzoneParams = iozone.Params
	// Bandwidth is a data rate (MB/s accessor: MBpsValue).
	Bandwidth = units.Bandwidth
	// Duration is virtual time in nanoseconds.
	Duration = units.Duration
	// Program is a per-rank application program bound to an MPI-IO
	// system; use Trace to characterize custom applications.
	Program = runner.ProgramFactory

	// The application-building surface, for writing custom programs:
	// a System hands out Files; a Rank is one MPI process with
	// Barrier/Exchange/Compute; Filetypes define strided views.

	// System is the MPI-IO library instance a program opens files
	// through.
	System = mpiio.System
	// Rank is one simulated MPI process.
	Rank = mpi.Rank
	// File is an open MPI-IO file handle.
	File = mpiio.File
	// Filetype describes a file view tiling (Contig or Vector).
	Filetype = mpiio.Filetype
	// Vector is a strided filetype (MPI_Type_vector-style).
	Vector = mpiio.Vector
	// Contig is the contiguous default filetype.
	Contig = mpiio.Contig
	// Nested is a two-level strided filetype (cell decompositions).
	Nested = mpiio.Nested
)

// File access types for System.Open.
const (
	// SharedFile opens one file for all processes.
	SharedFile = mpiio.Shared
	// UniqueFile opens one file per process (IOR -F).
	UniqueFile = mpiio.Unique
)

// The four I/O configurations of the paper's evaluation.
func ConfigA() Config     { return cluster.ConfigA() }
func ConfigB() Config     { return cluster.ConfigB() }
func ConfigC() Config     { return cluster.ConfigC() }
func Finisterrae() Config { return cluster.Finisterrae() }

// Placement strategies for rank-to-node mapping (RunOptions.Placement).
const (
	PlaceBlock   = cluster.PlaceBlock
	PlaceScatter = cluster.PlaceScatter
)

// Configs lists the four configurations in presentation order.
func Configs() []Config { return cluster.Presets() }

// ConfigByName resolves "configA" | "configB" | "configC" | "finisterrae".
func ConfigByName(name string) (Config, bool) { return cluster.PresetByName(name) }

// DefaultMADBench returns the paper's MADBench2 parameterization
// (8 bins, 32 MiB request size — 8KPIX over 16 processes).
func DefaultMADBench() MADBenchParams { return madbench.Default() }

// DefaultBTIO returns a faithful BT-IO parameterization for a class.
func DefaultBTIO(class BTIOClass) BTIOParams { return btio.Default(class) }

// BTIOClassByName resolves a NAS class name ("A".."D", "W").
func BTIOClassByName(name string) (BTIOClass, bool) { return btio.ClassByName(name) }

// BTIOClasses exposed for convenience.
var (
	ClassA = btio.ClassA
	ClassB = btio.ClassB
	ClassC = btio.ClassC
	ClassD = btio.ClassD
	ClassW = btio.ClassW
)

// Trace runs an arbitrary per-rank program on a configuration and returns
// the run products (with RunOptions.Trace set, the PAS2P trace set).
func Trace(cfg Config, np int, appName string, prog Program, opts RunOptions) RunResult {
	return runner.Run(cfg, np, appName, prog, opts)
}

// TraceMADBench2 characterizes the MADBench2 kernel on a configuration.
func TraceMADBench2(cfg Config, np int, p MADBenchParams, opts RunOptions) RunResult {
	opts.Trace = true
	return runner.Run(cfg, np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, p)
	}, opts)
}

// TraceBTIO characterizes the NAS BT-IO kernel on a configuration; np must
// be a perfect square.
func TraceBTIO(cfg Config, np int, p BTIOParams, opts RunOptions) RunResult {
	if err := btio.ValidateNP(np); err != nil {
		panic(err)
	}
	opts.Trace = true
	return runner.Run(cfg, np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, p)
	}, opts)
}

// DefaultROMS returns the upwelling-test parameterization of the
// ROMS-style kernel.
func DefaultROMS() ROMSParams { return roms.Upwelling() }

// TraceROMS characterizes the ROMS-style ocean model (HDF5 history and
// restart files; the paper's §V future-work application).
func TraceROMS(cfg Config, np int, p ROMSParams, opts RunOptions) RunResult {
	opts.Trace = true
	return runner.Run(cfg, np, "roms-upwelling", func(sys *mpiio.System) func(*mpi.Rank) {
		return roms.Program(sys, p)
	}, opts)
}

// Extract builds the application I/O model from a trace set: LAP mining,
// cross-rank phase identification, offset-function fitting and metadata
// derivation (§III-A1).
func Extract(set *TraceSet) *Model { return core.Build(set) }

// TraceSource streams a trace rank by rank without materializing it —
// the input of the bounded-memory extraction path.
type TraceSource = trace.Source

// ExtractStream is Extract over a streaming trace source: the same
// pipeline and model, memory bounded by process count and pattern count
// instead of trace length. Use for traces too large to LoadTraces.
func ExtractStream(src TraceSource) (*Model, error) { return core.BuildStream(src) }

// OpenTraceDir opens a saved trace directory (text or binary per-rank
// files) as a streaming source without reading the events.
func OpenTraceDir(dir string) (TraceSource, error) { return trace.OpenDir(dir) }

// TraceFormat selects the on-disk per-rank trace encoding.
type TraceFormat = trace.Format

// Per-rank trace encodings: the Figure 2 text columns, or the compact
// delta-encoded binary format for large traces.
const (
	TraceText   = trace.FormatText
	TraceBinary = trace.FormatBinary
)

// ConvertTraces re-encodes a saved trace directory into dst with the given
// per-rank format, streaming rank by rank.
func ConvertTraces(srcDir, dstDir string, f TraceFormat) error {
	return trace.ConvertDir(srcDir, dstDir, f)
}

// WriteTraceDir drains a streaming source into a saved trace directory in
// the given per-rank format, one bounded chunk at a time.
func WriteTraceDir(src TraceSource, dstDir string, f TraceFormat) error {
	return trace.WriteDir(src, dstDir, f)
}

// SynthSpec parameterizes a generated synthetic trace (streaming
// benchmarks and memory-bound smoke tests).
type SynthSpec = trace.SynthSpec

// SynthTraces returns a source generating a deterministic synthetic trace
// of the spec'd size at O(1) memory.
func SynthTraces(spec SynthSpec) (TraceSource, error) { return trace.Synth(spec) }

// LoadModel reads a model saved with Model.Save. A model with a phase IOR
// cannot replay (ior.ValidateModel) is an error naming the file and the
// phase.
func LoadModel(path string) (*Model, error) {
	m, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	if err := ior.ValidateModel(m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// LoadTraces reads a trace directory written by WriteTraceDir or
// TraceSet.Save (the iotrace output directory, in either encoding).
func LoadTraces(dir string) (*TraceSet, error) { return trace.Load(dir) }

// TraceSummary is a Darshan-style aggregate characterization of a trace.
type TraceSummary = trace.Summary

// Summarize aggregates a trace set into per-file operation counts, volume
// and request-size histograms (the complementary "how much of what" view
// to the phase model's "when and where").
func Summarize(set *TraceSet) *TraceSummary { return trace.Summarize(set) }

// EstimateTime predicts the model's I/O time on a target configuration by
// replaying its phases with the IOR replica (Eq. 1–2). The application
// itself never runs on the target — the paper's central point. A model
// needing more ranks than the configuration offers returns an error.
func EstimateTime(m *Model, cfg Config) (*Estimate, error) { return predict.EstimateTime(m, cfg) }

// Job is one application in a concurrent multi-job run.
type Job = runner.Job

// JobResult is one job's outcome from a concurrent run.
type JobResult = runner.JobResult

// RunConcurrent executes several jobs on one cluster simultaneously,
// sharing the interconnect and storage — for measuring I/O interference
// and validating co-schedules.
func RunConcurrent(cfg Config, jobs []Job, traceJobs bool) []JobResult {
	results, _ := runner.RunConcurrent(cfg, jobs, traceJobs)
	return results
}

// SchedulePlan is a scored start offset for a co-scheduled job.
type SchedulePlan = schedule.Plan

// CoexecApp is one application in a simulated co-execution.
type CoexecApp = coexec.App

// CoexecSpec is a complete co-execution scenario: N applications sharing
// one simulated cluster at given start offsets.
type CoexecSpec = coexec.Spec

// CoexecResult carries per-app Time_io attribution and shared-subsystem
// totals from a co-execution.
type CoexecResult = coexec.Result

// RunCoexec simulates N applications' phase schedules contending on ONE
// fabric + filesystem (bandwidth shared at the link/disk queues) and
// reports each app's contended Time_io plus its exact share of the
// subsystem traffic. Results are memoized content-addressed, like every
// other deterministic simulation; treat the returned Result as immutable.
func RunCoexec(spec CoexecSpec) (*CoexecResult, error) { return simcache.RunCoexec(spec) }

// PlanOffsets places N jobs greedily: job 0 at offset 0, each later job
// at the offset in [0, window] minimizing byte-weighted phase overlap
// against everything already placed. For two jobs this equals
// BestStartOffset. A window holding more than 2^20 step-sized offsets is
// an error.
func PlanOffsets(models []*Model, windowSec, stepSec float64) ([]SchedulePlan, error) {
	return schedule.PlanJobs(models, windowSec, stepSec)
}

// BestStartOffset plans job B's start relative to job A from their I/O
// models, minimizing the byte-weighted overlap of their I/O phases (the
// planning use of the phase view that §IV-A sketches). It returns the best
// plan and the naive co-start plan for comparison. A window holding more
// than 2^20 step-sized offsets panics; PlanOffsets reports it instead.
func BestStartOffset(a, b *Model, windowSec, stepSec float64) (best, naive SchedulePlan) {
	return schedule.BestOffset(a, b, windowSec, stepSec)
}

// Rescale derives the model for a different process count (characterize
// at small scale, predict at large scale); exact for kernels whose offset
// functions factor into rs and rs·np units, like BT-IO's Table XI.
func Rescale(m *Model, npNew int) (*Model, error) { return m.Rescale(npNew) }

// EstimateTimeFaithful is EstimateTime with the phase-faithful replay
// benchmark for multi-operation phases — the §V future-work improvement
// that replaces IOR's write/read-pass average for interleaved phases.
func EstimateTimeFaithful(m *Model, cfg Config) (*Estimate, error) {
	return predict.EstimateTimeOpts(m, cfg, predict.EstimateOptions{FaithfulMixed: true})
}

// SelectConfig estimates the model on every candidate configuration and
// returns the index of the one with the least estimated I/O time plus all
// per-configuration estimates.
func SelectConfig(m *Model, cfgs []Config) (best int, choices []predict.Choice, err error) {
	return predict.SelectConfig(m, cfgs)
}

// CompareByFamily groups an estimate's phases (BT-IO: "Phase 1-50",
// "Phase 51") and compares characterized vs measured times, yielding the
// rows of Tables XII–XIV. Models of mismatched shape return an error.
func CompareByFamily(est *Estimate, measured *Model) ([]GroupComparison, error) {
	return predict.CompareByFamily(est, measured)
}

// PeakBandwidth measures BW_PK of a configuration with the IOzone replica
// (Eq. 3–4): per-I/O-node pattern maxima summed over nodes.
func PeakBandwidth(cfg Config, fileSize, requestSize int64) (write, read Bandwidth) {
	return predict.PeakBandwidth(cfg, fileSize, requestSize)
}

// Usage is Eq. 5: measured bandwidth as a percentage of the device peak.
func Usage(measured, peak Bandwidth) float64 { return predict.Usage(measured, peak) }

// RelativeError is Eq. 6–7 in percent.
func RelativeError(characterized, measured float64) float64 {
	return predict.RelativeError(characterized, measured)
}

// Variant is a hypothetical configuration for what-if exploration.
type Variant = predict.Variant

// ExploreResult is one variant's estimated I/O time.
type ExploreResult = predict.ExploreResult

// Explore estimates the model on every variant configuration, best first —
// subsystem design and selection without building any hardware (the SIMCAN
// direction of the paper's future work).
func Explore(m *Model, variants []Variant) ([]ExploreResult, error) {
	return predict.Explore(m, variants)
}

// StandardVariants derives a systematic what-if sweep from a base
// configuration: network generations, striped I/O node counts, and device
// organizations.
func StandardVariants(base Config) []Variant { return predict.StandardVariants(base) }

// FaultSchedule is a named, seeded set of deterministic fault windows
// (slow disks, RAID rebuilds, degraded/flapping links, transient errors).
// Assign one to Config.Faults to run that configuration degraded.
type FaultSchedule = faults.Schedule

// DegradedComparison pairs per-phase estimates on a healthy configuration
// with the same configuration under a fault scenario.
type DegradedComparison = predict.DegradedComparison

// FaultPresets lists the built-in fault-scenario names.
func FaultPresets() []string { return faults.PresetNames() }

// ResolveFaults turns a preset name or a scenario JSON path into a
// validated fault schedule (the -faults CLI argument).
func ResolveFaults(arg string) (*FaultSchedule, error) { return faults.Resolve(arg) }

// CompareDegraded estimates the model on cfg healthy and under the fault
// schedule, pairing per-phase Time_io and SystemUsage — "which
// configuration degrades most gracefully for this application?".
func CompareDegraded(m *Model, cfg Config, sch *FaultSchedule, peakFileSize, peakRS int64) (*DegradedComparison, error) {
	return predict.CompareDegraded(m, cfg, sch, peakFileSize, peakRS)
}

// CharzOptions select the exhaustive-characterization sweep grid.
type CharzOptions = charz.Options

// CharzReport is a configuration's performance map.
type CharzReport = charz.Report

// Characterize sweeps the IOR/IOzone parameter grids of Tables III–IV over
// a configuration (the authors' prior exhaustive methodology, reference
// [11]) — the baseline the phase model replaces.
func Characterize(cfg Config, opts CharzOptions) *CharzReport {
	return charz.Characterize(cfg, opts)
}

// RunIOR executes the IOR replica on the configuration, through the
// simulation cache: repeated identical replays return memoized results, and
// contention-free runs (one rank, one storage target, no faults) are priced
// by the analytic fast path under the package-default FastPathMode. Traced
// runs always execute the full simulation.
func RunIOR(cfg Config, p IORParams) IORResult { return simcache.RunIOR(cfg, p) }

// FastPathMode selects how contention-free IOR replays are priced: off
// (always run the DES), on (closed-form when provably equivalent), or
// verify (run both, panic on any divergence).
type FastPathMode = fastpath.Mode

// Fast-path modes. ModeDefault resolves to the package default (on).
const (
	FastPathDefault = fastpath.ModeDefault
	FastPathOff     = fastpath.ModeOff
	FastPathOn      = fastpath.ModeOn
	FastPathVerify  = fastpath.ModeVerify
)

// SetFastPath changes the package-default fast-path mode (the -fastpath
// CLI flag).
func SetFastPath(m FastPathMode) { fastpath.SetDefault(m) }

// ParseFastPath parses a -fastpath flag value: "off", "on", or "verify".
func ParseFastPath(s string) (FastPathMode, error) { return fastpath.ParseMode(s) }

// FastPathStats reports how many simulations the analytic fast path served
// (hits) and how many fell back to the full DES after failing admission or
// bailing out mid-walk (bailouts).
func FastPathStats() (hits, bailouts int64) { return fastpath.Stats() }

// MeasuredBandwidth reports a phase's BW_MD from its traced time.
func MeasuredBandwidth(pm *PhaseModel) Bandwidth {
	return units.BandwidthOf(pm.Weight, units.FromSeconds(pm.MeasuredSec))
}
