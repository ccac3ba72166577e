package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"iophases/internal/core"
)

// modelFromIntervals builds a synthetic model whose phase timing matches
// the given timeline exactly — the minimal input BestOffset/PlanJobs need.
func modelFromIntervals(tl []Interval) *core.Model {
	m := &core.Model{App: "synthetic"}
	for i, iv := range tl {
		m.Phases = append(m.Phases, &core.PhaseModel{
			ID: i, NP: 1, Weight: iv.Weight,
			StartSec: iv.Start, MeasuredSec: iv.End - iv.Start,
		})
	}
	return m
}

// genTimeline builds a random timeline on an integer grid: integer starts
// and durations with weights chosen as duration·rate for an integer rate,
// so every overlap contribution (seconds · min rate) is an integer and
// float summation is exact in any order. The properties below are then
// exact equalities, not tolerance checks.
func genTimeline(r *rand.Rand, n int) []Interval {
	tl := make([]Interval, n)
	for i := range tl {
		start := float64(r.Intn(100))
		dur := float64(1 + r.Intn(10))
		rate := int64(1 + r.Intn(100))
		tl[i] = Interval{Start: start, End: start + dur, Weight: int64(dur) * rate}
	}
	return tl
}

// TestOverlapSymmetry: Overlap(a, b, off) == Overlap(b, a, -off) — B
// starting off after A is the same physical situation as A starting off
// before B. The tentpole's simulator cross-validation builds on this: the
// planner may score either job as the anchor.
func TestOverlapSymmetry(t *testing.T) {
	f := func(a, b []Interval, off float64) bool {
		return Overlap(a, b, off) == Overlap(b, a, -off)
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genTimeline(r, 1+r.Intn(5)))
			args[1] = reflect.ValueOf(genTimeline(r, 1+r.Intn(5)))
			args[2] = reflect.ValueOf(float64(r.Intn(101) - 50))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapZeroInsideGaps: whenever B's phases all land strictly inside
// A's compute gaps, the contention score is zero — the exact claim behind
// "steer B's phases into A's gaps".
func TestOverlapZeroInsideGaps(t *testing.T) {
	f := func(a, b []Interval) bool {
		return Overlap(a, b, 0) == 0
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			a := genTimeline(r, 1+r.Intn(5))
			gaps := Gaps(a)
			var b []Interval
			for _, g := range gaps {
				// Fit one phase inside each gap wide enough to hold one.
				if g.End-g.Start < 1 {
					continue
				}
				width := g.End - g.Start
				start := g.Start + float64(r.Intn(int(width)))
				end := start + 1
				if end > g.End {
					end = g.End
				}
				b = append(b, Interval{Start: start, End: end, Weight: 1 + int64(r.Intn(1000))})
			}
			args[0] = reflect.ValueOf(a)
			args[1] = reflect.ValueOf(b)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBestOffsetGridIsIndexExact pins the satellite fix: the searched grid
// is indexed (float64(i)·step), not accumulated, so at adversarial
// parameters — step 0.1 over a 1000 s window, 10000 non-representable
// increments — the grid has exactly the right point count and the chosen
// offset is bit-equal to a grid point.
func TestBestOffsetGridIsIndexExact(t *testing.T) {
	for _, g := range []struct {
		window, step float64
		want         int
	}{{1000, 0.1, 10000}, {0.3, 0.1, 3}, {1, 0.3, 3}} {
		if got, err := GridSteps(g.window, g.step); got != g.want || err != nil {
			t.Fatalf("GridSteps(%v, %v) = %d, %v; want %d", g.window, g.step, got, err, g.want)
		}
	}

	mk := func(start, end float64, w int64) *core.Model {
		return modelFromIntervals([]Interval{{Start: start, End: end, Weight: w}})
	}
	a, b := mk(0, 500, 500000), mk(0, 500, 500000)
	best, naive := BestOffset(a, b, 1000, 0.1)
	if naive.Score <= 0 {
		t.Fatal("identical jobs must contend at co-start")
	}
	// The first zero-contention grid point is i=5000; every earlier point
	// (e.g. 4999·0.1 = 499.90000000000003) still overlaps a sliver. An
	// accumulated grid drifts past the boundary and lands elsewhere.
	want := float64(5000) * 0.1
	if best.Score != 0 || best.OffsetSec != want {
		t.Fatalf("best = %+v, want score 0 at offset %v", best, want)
	}
	// Determinism: the same search at a window extended past the optimum
	// probes the same early grid points and returns the same plan.
	best2, _ := BestOffset(a, b, 700, 0.1)
	if best2 != best {
		t.Fatalf("window size changed the searched grid: %+v vs %+v", best2, best)
	}
}

// TestGapsShuffledInput is the regression for the sortedness bug: a
// timeline with out-of-order and overlapping phase timings (as
// multi-family merges can produce) must yield the same non-negative,
// non-overlapping gaps as the sorted equivalent.
func TestGapsShuffledInput(t *testing.T) {
	sorted := []Interval{
		{Start: 1, End: 3, Weight: 1},
		{Start: 2, End: 5, Weight: 1}, // overlaps the previous
		{Start: 7, End: 8, Weight: 1},
		{Start: 9, End: 12, Weight: 1},
	}
	shuffled := []Interval{sorted[3], sorted[0], sorted[2], sorted[1]}
	want := Gaps(sorted)
	got := Gaps(shuffled)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shuffled gaps %+v, want %+v", got, want)
	}
	cursor := 0.0
	for i, g := range got {
		if g.End <= g.Start {
			t.Fatalf("gap %d has non-positive length: %+v", i, g)
		}
		if g.Start < cursor {
			t.Fatalf("gap %d overlaps its predecessor: %+v", i, got)
		}
		cursor = g.End
	}
	// The shuffle must not have mutated the caller's slice order.
	if shuffled[0].Start != 9 {
		t.Fatal("Gaps mutated its input")
	}
}

// TestPlanJobsPairMatchesBestOffset: the greedy N-job planner must reduce
// exactly to the pairwise search when N = 2.
func TestPlanJobsPairMatchesBestOffset(t *testing.T) {
	a := modelFromIntervals([]Interval{{Start: 0, End: 10, Weight: 1000}, {Start: 20, End: 30, Weight: 2000}})
	b := modelFromIntervals([]Interval{{Start: 0, End: 10, Weight: 1500}})
	best, _ := BestOffset(a, b, 40, 0.5)
	plans, err := PlanJobs([]*core.Model{a, b}, 40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].OffsetSec != 0 || plans[1] != best {
		t.Fatalf("PlanJobs %+v, want anchor 0 and %+v", plans, best)
	}
}
