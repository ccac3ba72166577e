package schedule

import (
	"math"
	"strings"
	"testing"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

func madbenchModel(t *testing.T, np int, rs int64, file string) *core.Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	params.FileName = file
	res := runner.Run(cluster.ConfigA(), np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

func TestTimelineMonotoneAndWeighted(t *testing.T) {
	m := madbenchModel(t, 4, 4*units.MiB, "/a.dat")
	tl := Timeline(m)
	if len(tl) != len(m.Phases) {
		t.Fatalf("intervals %d", len(tl))
	}
	for i, iv := range tl {
		if iv.End <= iv.Start || iv.Weight <= 0 {
			t.Fatalf("interval %d: %+v", i, iv)
		}
		if i > 0 && iv.Start < tl[i-1].Start {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	if Makespan(tl) != tl[len(tl)-1].End {
		t.Fatal("makespan")
	}
}

func TestOverlapProperties(t *testing.T) {
	a := []Interval{{Start: 0, End: 10, Weight: 1000}}
	b := []Interval{{Start: 0, End: 10, Weight: 1000}}
	full := Overlap(a, b, 0)
	if full <= 0 {
		t.Fatal("no overlap scored")
	}
	// Shifting fully apart removes the contention.
	if got := Overlap(a, b, 10); got != 0 {
		t.Fatalf("disjoint overlap %v", got)
	}
	// Half shift halves the overlap duration.
	half := Overlap(a, b, 5)
	if math.Abs(half-full/2) > 1e-9 {
		t.Fatalf("half overlap %v, want %v", half, full/2)
	}
}

func TestGapsComplementTimeline(t *testing.T) {
	tl := []Interval{{Start: 1, End: 2, Weight: 1}, {Start: 4, End: 5, Weight: 1}}
	gaps := Gaps(tl)
	want := []Interval{{Start: 0, End: 1}, {Start: 2, End: 4}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %+v", gaps)
	}
	for i := range want {
		if gaps[i].Start != want[i].Start || gaps[i].End != want[i].End {
			t.Fatalf("gap %d = %+v", i, gaps[i])
		}
	}
}

func TestBestOffsetReducesContention(t *testing.T) {
	a := madbenchModel(t, 4, 8*units.MiB, "/a.dat")
	b := madbenchModel(t, 4, 8*units.MiB, "/b.dat")
	best, naive := BestOffset(a, b, Makespan(Timeline(a)), 0.5)
	if best.Score > naive.Score {
		t.Fatalf("best %v worse than naive %v", best.Score, naive.Score)
	}
	if naive.Score <= 0 {
		t.Fatal("identical jobs at offset 0 must contend")
	}
}

// TestPlannedOffsetHelpsEmpirically is the end-to-end validation: run both
// jobs concurrently on one simulated cluster, naive co-start vs the
// planner's offset, and require the planned schedule to finish the pair's
// I/O no later (measured by combined makespan).
func TestPlannedOffsetHelpsEmpirically(t *testing.T) {
	const np = 4
	rs := int64(8 * units.MiB)
	a := madbenchModel(t, np, rs, "/a.dat")
	b := madbenchModel(t, np, rs, "/b.dat")
	best, naive := BestOffset(a, b, Makespan(Timeline(a)), 0.5)
	if best.OffsetSec == 0 {
		t.Skip("planner found no better offset at this scale")
	}

	runPair := func(offset float64) units.Duration {
		mk := func(file string) runner.ProgramFactory {
			params := madbench.Default()
			params.RS = rs
			params.FileName = file
			return func(sys *mpiio.System) func(*mpi.Rank) {
				return madbench.Program(sys, params)
			}
		}
		results, _ := runner.RunConcurrent(cluster.ConfigA(), []runner.Job{
			{Name: "jobA", NP: np, Prog: mk("/a.dat")},
			{Name: "jobB", NP: np, Prog: mk("/b.dat"), StartDelay: units.FromSeconds(offset)},
		}, false)
		var end units.Duration
		for _, r := range results {
			if r.End > end {
				end = r.End
			}
		}
		return end
	}
	naiveEnd := runPair(0)
	plannedEnd := runPair(best.OffsetSec)
	t.Logf("naive co-start ends %v; planned offset %.1fs ends %v (contention %.0f -> %.0f)",
		naiveEnd, best.OffsetSec, plannedEnd, naive.Score, best.Score)
	// The planned run delays job B, so its own span grows; the win is
	// bounded contention: the pair must not finish later than naive plus
	// the offset (i.e. the delayed job loses nothing to interference).
	slack := units.FromSeconds(best.OffsetSec)
	if plannedEnd > naiveEnd+slack {
		t.Fatalf("planned %v exceeds naive %v + offset %v", plannedEnd, naiveEnd, slack)
	}
}

func TestRunConcurrentIsolatesJobs(t *testing.T) {
	mk := func(file string) runner.ProgramFactory {
		params := madbench.Default()
		params.RS = units.MiB
		params.FileName = file
		return func(sys *mpiio.System) func(*mpi.Rank) {
			return madbench.Program(sys, params)
		}
	}
	results, _ := runner.RunConcurrent(cluster.ConfigA(), []runner.Job{
		{Name: "a", NP: 4, Prog: mk("/a.dat")},
		{Name: "b", NP: 4, Prog: mk("/b.dat")},
	}, true)
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if r.End <= r.Start || r.Set == nil {
			t.Fatalf("job %s: %+v", r.Name, r)
		}
		w, rd := r.Set.TotalBytes()
		wantW, wantR := madbench.TotalBytes(madbench.Params{NBin: 8, RS: units.MiB}, 4)
		if w != wantW || rd != wantR {
			t.Fatalf("job %s traced %d/%d", r.Name, w, rd)
		}
	}
	// Concurrent jobs slow each other down vs running alone.
	solo := runner.Run(cluster.ConfigA(), 4, "solo", mk("/a.dat"), runner.Options{})
	if results[0].Elapsed <= solo.Elapsed {
		t.Fatalf("no interference: concurrent %v vs solo %v", results[0].Elapsed, solo.Elapsed)
	}
}

// TestGridBound: a search grid of more than MaxGridSteps offsets is
// refused, not searched. A step of 1e-300 s or a window of 1e300 s gives
// a count past every int, which converted is MinInt64, so the search
// would not run and the co-start plan would stand as if it were the
// answer; a step of 1e-9 s over 40 s asks for 4·10^10 offsets, hours of
// search. PlanJobs reports the
// bound as an error and BestOffset, whose callers pass fixed grids,
// panics with it.
func TestGridBound(t *testing.T) {
	a := modelFromIntervals([]Interval{{Start: 0, End: 10, Weight: 1000}, {Start: 20, End: 30, Weight: 2000}})
	b := modelFromIntervals([]Interval{{Start: 0, End: 10, Weight: 1500}})
	for _, g := range []struct{ window, step float64 }{
		{40, 1e-300}, {1e300, 0.5}, {40, 1e-9}, {MaxGridSteps + 1, 1},
	} {
		plans, err := PlanJobs([]*core.Model{a, b}, g.window, g.step)
		if err == nil || !strings.Contains(err.Error(), "MaxGridSteps") {
			t.Errorf("PlanJobs(window %g, step %g) = %+v, %v; want an error naming MaxGridSteps",
				g.window, g.step, plans, err)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "MaxGridSteps") {
					t.Errorf("BestOffset(window %g, step %g) panicked with %q; want a panic naming MaxGridSteps",
						g.window, g.step, msg)
				}
			}()
			BestOffset(a, b, g.window, g.step)
		}()
	}
	// A grid of exactly MaxGridSteps offsets is searched.
	if n, err := GridSteps(MaxGridSteps, 1); n != MaxGridSteps || err != nil {
		t.Fatalf("GridSteps(MaxGridSteps, 1) = %d, %v; want the full grid", n, err)
	}
	if _, err := PlanJobs([]*core.Model{a, b}, MaxGridSteps, 1); err != nil {
		t.Fatal(err)
	}
}
