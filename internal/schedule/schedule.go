// Package schedule applies I/O models to job co-scheduling — the use the
// paper sketches in §IV-A: "This view of application I/O can be useful …
// for the planning the parallel applications taking into account when the
// I/O phases are done in the application executing."
//
// Two jobs that share a cluster contend only while their I/O phases
// overlap; between phases each computes without touching storage. Given
// two I/O models (whose phases carry start times and durations from
// characterization), the planner scores candidate start offsets for the
// second job by the byte-weighted overlap of I/O intervals and picks the
// offset that interleaves one job's phases into the other's compute gaps.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"iophases/internal/core"
)

// Interval is one I/O phase on the wall clock, weighted by its volume.
type Interval struct {
	Start, End float64 // seconds, app-relative
	Weight     int64   // bytes
}

// Timeline extracts a model's I/O intervals. Phases with missing timing
// (e.g. rescaled models) yield a nil timeline.
func Timeline(m *core.Model) []Interval {
	var out []Interval
	for _, pm := range m.Phases {
		if pm.MeasuredSec <= 0 {
			return nil
		}
		out = append(out, Interval{
			Start:  pm.StartSec,
			End:    pm.StartSec + pm.MeasuredSec,
			Weight: pm.Weight,
		})
	}
	return out
}

// Makespan reports the end of the last interval (the app's I/O horizon).
func Makespan(tl []Interval) float64 {
	var end float64
	for _, iv := range tl {
		if iv.End > end {
			end = iv.End
		}
	}
	return end
}

// Overlap scores the contention of two timelines when the second starts
// `offset` seconds after the first: for every pair of overlapping
// intervals it accumulates overlapSeconds · min(weightRate_a, weightRate_b)
// — bytes that will fight for the same storage path.
func Overlap(a, b []Interval, offset float64) float64 {
	var score float64
	for _, ia := range a {
		ra := rate(ia)
		for _, ib := range b {
			s := math.Max(ia.Start, ib.Start+offset)
			e := math.Min(ia.End, ib.End+offset)
			if e <= s {
				continue
			}
			score += (e - s) * math.Min(ra, rate(ib))
		}
	}
	return score
}

func rate(iv Interval) float64 {
	d := iv.End - iv.Start
	if d <= 0 {
		return 0
	}
	return float64(iv.Weight) / d
}

// Plan is a scored start offset for the second job.
type Plan struct {
	OffsetSec float64
	Score     float64 // contended bytes (lower is better)
}

// BestOffset searches start offsets for job B in [0, window] at the given
// step and returns the plan minimizing contention, plus the score at
// offset 0 (the naive co-start) for comparison. Ties prefer the smallest
// offset, so B never waits longer than it has to. A grid of more than
// MaxGridSteps offsets panics: callers pass fixed grids, and input that
// sets the window or the step goes through PlanJobs, which reports it.
func BestOffset(a, b *core.Model, windowSec, stepSec float64) (best Plan, naive Plan) {
	ta, tb := Timeline(a), Timeline(b)
	naive = Plan{OffsetSec: 0, Score: Overlap(ta, tb, 0)}
	if ta == nil || tb == nil {
		return naive, naive
	}
	best, err := search(ta, tb, windowSec, stepSec)
	if err != nil {
		panic(err.Error())
	}
	return best, naive
}

// search scores job B's timeline tb against ta at offset 0 and at every
// point of the [0, window] grid, and returns the plan with the least
// contention, the earliest on a tie.
//
// The grid is indexed, not accumulated: offset i is float64(i)*stepSec, so
// the searched points are identical for any window size (an accumulating
// `off += stepSec` drifts by one ulp per step, and over a long window the
// drift moves grid points past phase boundaries — the planner's answer
// then depends on where the window ends, not on the timelines).
func search(ta, tb []Interval, windowSec, stepSec float64) (Plan, error) {
	best := Plan{OffsetSec: 0, Score: Overlap(ta, tb, 0)}
	n, err := GridSteps(windowSec, stepSec)
	if err != nil {
		return Plan{}, err
	}
	for i := 1; i <= n; i++ {
		off := float64(i) * stepSec
		if s := Overlap(ta, tb, off); s < best.Score {
			best = Plan{OffsetSec: off, Score: s}
		}
	}
	return best, nil
}

// MaxGridSteps bounds the offsets one search scores. Each costs one
// Overlap over the two timelines, so the bound keeps a search to seconds;
// the planner's own callers use a few hundred.
const MaxGridSteps = 1 << 20

// GridSteps reports how many step-sized offsets past zero the search grid
// of [0, window] contains, 0 when either is not positive. The epsilon
// admits the final grid point when window is an exact multiple of step up
// to rounding (window 1000, step 0.1 must search 10000 offsets, not 9999),
// scaled to the window so it cannot invent a point beyond it at any
// magnitude. A grid of more than MaxGridSteps offsets is an error, checked
// before the count is converted to an int, which it may not fit.
func GridSteps(windowSec, stepSec float64) (int, error) {
	if windowSec <= 0 || stepSec <= 0 {
		return 0, nil
	}
	n := (windowSec + windowSec*1e-12) / stepSec
	if !(n < MaxGridSteps+1) {
		return 0, fmt.Errorf("schedule: a %gs window at a %gs step is %.3g offsets, over the grid bound MaxGridSteps = %d",
			windowSec, stepSec, n, MaxGridSteps)
	}
	return int(n), nil
}

// Gaps reports the compute gaps of a timeline (the complements of its I/O
// intervals within the makespan) — where a co-scheduled job's phases fit
// for free. The input is sorted by start time first: timelines from
// multi-family merges can carry out-of-order or overlapping phase
// timings, and sweeping them in phase order would emit negative-length or
// overlapping "gaps".
func Gaps(tl []Interval) []Interval {
	if len(tl) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), tl...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	horizon := Makespan(sorted)
	var gaps []Interval
	cursor := 0.0
	for _, iv := range sorted {
		if iv.Start > cursor {
			gaps = append(gaps, Interval{Start: cursor, End: iv.Start})
		}
		if iv.End > cursor {
			cursor = iv.End
		}
	}
	if cursor < horizon {
		gaps = append(gaps, Interval{Start: cursor, End: horizon})
	}
	return gaps
}

// Shift returns the timeline with offset added to every interval — the
// wall-clock view of a job started offset seconds late.
func Shift(tl []Interval, offset float64) []Interval {
	out := make([]Interval, len(tl))
	for i, iv := range tl {
		out[i] = Interval{Start: iv.Start + offset, End: iv.End + offset, Weight: iv.Weight}
	}
	return out
}

// PlanJobs places N jobs on one shared subsystem greedily: job 0 anchors
// at offset 0; each later job sweeps [0, window] at step against the union
// of the already-placed (shifted) timelines and takes the offset that adds
// the least contention. Returned plans are per job, in input order; each
// Score is the contention that job adds against everything placed before
// it. For two jobs this reduces exactly to BestOffset, through the same
// search. Models without phase timing are an error — a plan over missing
// timelines would be silent nonsense — and so is a grid of more than
// MaxGridSteps offsets.
func PlanJobs(models []*core.Model, windowSec, stepSec float64) ([]Plan, error) {
	if len(models) < 2 {
		return nil, fmt.Errorf("schedule: PlanJobs needs at least 2 models, got %d", len(models))
	}
	timelines := make([][]Interval, len(models))
	for i, m := range models {
		if timelines[i] = Timeline(m); timelines[i] == nil {
			return nil, fmt.Errorf("schedule: model %q lacks phase timing (rescaled models cannot be scheduled)", m.App)
		}
	}
	plans := make([]Plan, len(models))
	placed := Shift(timelines[0], 0) // job 0 anchors the schedule
	plans[0] = Plan{}
	for j := 1; j < len(models); j++ {
		best, err := search(placed, timelines[j], windowSec, stepSec)
		if err != nil {
			return nil, err
		}
		plans[j] = best
		placed = append(placed, Shift(timelines[j], best.OffsetSec)...)
	}
	return plans, nil
}

// TotalOverlap scores a complete offset assignment: the sum of pairwise
// byte-weighted overlaps between every two jobs at their relative offsets
// — the analytic contention predictor the simulated co-execution
// cross-validates.
func TotalOverlap(timelines [][]Interval, offsets []float64) float64 {
	var total float64
	for i := range timelines {
		for j := i + 1; j < len(timelines); j++ {
			total += Overlap(timelines[i], timelines[j], offsets[j]-offsets[i])
		}
	}
	return total
}
