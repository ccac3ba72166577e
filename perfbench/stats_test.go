package main

import (
	"reflect"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n, perMille int
		want        float64
	}{
		{200, 950, 190}, // exact rank, no float rounding up to 191
		{200, 500, 100},
		{10, 900, 9},
		{3, 500, 2},
		{1, 990, 1},
		{7, 10, 1}, // rank never below 1
		{1000, 990, 990},
	}
	for _, c := range cases {
		if got := percentile(ascending(c.n), c.perMille); got != c.want {
			t.Errorf("p%d of 1..%d = %v, want %v", c.perMille, c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{1, 2, 3}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestTailAtFixedPercentile(t *testing.T) {
	cases := []struct {
		n, perMille int
		beyond      int
		value       float64
	}{
		{100, 900, 10, 90},     // p90 leaves exactly 10
		{99, 900, 9, 90},       // one sample short
		{200, 950, 10, 190},    // p95 leaves exactly 10
		{199, 950, 9, 190},     // one sample short
		{1000, 990, 10, 990},   // p99 leaves exactly 10
		{999, 990, 9, 990},     // one sample short
		{5000, 950, 250, 4750}, // the percentile stays p95 however many ops run
		{100000, 990, 1000, 99000},
	}
	for _, c := range cases {
		got := tailAt(ascending(c.n), c.perMille)
		if got.perMille != c.perMille || got.beyond != c.beyond || got.value != c.value {
			t.Errorf("p%d of %d samples = %+v, want %d beyond at %v", c.perMille, c.n, got, c.beyond, c.value)
		}
	}
}

func TestMinOpsLeavesTenBeyond(t *testing.T) {
	for perMille, want := range map[int]int{900: 100, 950: 200, 990: 1000} {
		n := minOps(perMille)
		if n != want || tailAt(ascending(n), perMille).beyond < minBeyond || tailAt(ascending(n-1), perMille).beyond >= minBeyond {
			t.Errorf("minOps(%d) = %d, want %d, the least count with %d beyond", perMille, n, want, minBeyond)
		}
	}
}

func TestLeastStolenWindows(t *testing.T) {
	ms := time.Millisecond
	lp := loop{
		lat: []time.Duration{1 * ms, 2 * ms, 30 * ms, 3 * ms, 4 * ms, 40 * ms, 5 * ms},
		windows: []window{
			{first: 0, end: 2, wall: 100 * ms},
			{first: 2, end: 3, wall: 100 * ms, steal: 1},
			{first: 3, end: 5, wall: 200 * ms},
			{first: 5, end: 6, wall: 100 * ms, steal: 3},
			{first: 6, end: 7, wall: 200 * ms},
		},
	}
	cases := []struct {
		need  int
		lat   []time.Duration
		wall  time.Duration
		limit int64
	}{
		// The quiet windows hold enough ops: they alone score.
		{4, []time.Duration{1 * ms, 2 * ms, 3 * ms, 4 * ms, 5 * ms}, 500 * ms, 0},
		// They do not: the window with one tick joins them, in time order.
		{6, []time.Duration{1 * ms, 2 * ms, 30 * ms, 3 * ms, 4 * ms, 5 * ms}, 600 * ms, 1},
		// Fewer ops than needed in all: every window scores.
		{100, lp.lat, 700 * ms, 3},
	}
	for _, c := range cases {
		lat, wall, limit := lp.leastStolen(c.need)
		if !reflect.DeepEqual(lat, c.lat) || wall != c.wall || limit != c.limit {
			t.Errorf("need %d: %v over %v at limit %d, want %v over %v at limit %d",
				c.need, lat, wall, limit, c.lat, c.wall, c.limit)
		}
	}
}

func TestOpsPerSecond(t *testing.T) {
	if got := opsPerSecond(300, 15*time.Second); got != 20 {
		t.Errorf("300 ops in 15s = %v/s, want 20", got)
	}
	if got := opsPerSecond(5, 0); got != 0 {
		t.Errorf("zero wall time = %v/s, want 0", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * time.Millisecond},
		{"disjoint", []interval{ms(10, 20), ms(30, 50)}, 70 * time.Millisecond},
		// Two sweep workers reading side by side: [10,40) and [20,50)
		// cover 40 ms together, not the 60 ms their durations add to.
		{"overlapping", []interval{ms(10, 40), ms(20, 50), ms(60, 70)}, 50 * time.Millisecond},
		{"nested", []interval{ms(10, 90), ms(20, 30)}, 20 * time.Millisecond},
		{"clipped", []interval{ms(90, 120), ms(-10, 5)}, 85 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}
