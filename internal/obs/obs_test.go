package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilHandlesAreNoOps pins the disabled-telemetry contract: every method
// on a nil handle must be callable and inert — this is what lets hot layers
// hold handles unconditionally.
func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	c.Reset()

	var g *Gauge
	g.Set(3)
	g.Add(2)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge reported a value")
	}

	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram reported observations")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	r.Reset()
}

// TestNilHandleAllocs pins that the disabled path allocates nothing — the
// property the engine's allocs/op gate depends on.
func TestNilHandleAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(7)
		h.Observe(9)
	})
	if allocs != 0 {
		t.Fatalf("nil handles allocated %.1f per run, want 0", allocs)
	}
}

// TestRegistryAggregatesByName pins process-wide aggregation: two fetches
// of one name share a handle.
func TestRegistryAggregatesByName(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("des/events")
	b := r.Counter("des/events")
	if a != b {
		t.Fatal("same name produced distinct counters")
	}
	a.Add(3)
	b.Inc()
	if got := r.Counter("des/events").Value(); got != 4 {
		t.Fatalf("aggregated value = %d, want 4", got)
	}
}

// TestGaugeSetMax is the high-watermark contract, including under
// concurrency.
func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(v int64) { defer wg.Done(); g.SetMax(v) }(int64(i))
	}
	wg.Wait()
	if g.Value() != 64 {
		t.Fatalf("concurrent SetMax landed on %d, want 64", g.Value())
	}
}

// TestHistogramBucketBoundaries pins the log2 bucketing: v lands in
// [2^(i-1), 2^i) and non-positive values in the zero bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 1023, 1024, math.MaxInt64} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	want := map[[2]int64]int64{
		{0, 0}:                   2, // -3, 0
		{1, 2}:                   1, // 1
		{2, 4}:                   2, // 2, 3
		{4, 8}:                   1, // 4
		{512, 1024}:              1, // 1023
		{1024, 2048}:             1, // 1024
		{1 << 62, math.MaxInt64}: 1, // MaxInt64
	}
	got := map[[2]int64]int64{}
	for _, b := range h.Buckets() {
		got[[2]int64{b.Low, b.High}] = b.N
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("bucket [%d,%d) = %d, want %d", k[0], k[1], got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("bucket set %v, want %v", got, want)
	}
}

// TestWriteTextSortedAndJSONParses pins the render contracts: text output
// lists metrics sorted by name, and the JSON dump parses back into the
// snapshot shape.
func TestWriteTextSortedAndJSONParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Set(7)
	r.Histogram("sizes").Observe(4096)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	s := text.String()
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Fatalf("counters not sorted:\n%s", s)
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}
	if snap.Counters["alpha"] != 2 || snap.Gauges["mid"] != 7 {
		t.Fatalf("snapshot round trip lost values: %+v", snap)
	}
	if hs := snap.Histograms["sizes"]; hs.Count != 1 || hs.Sum != 4096 {
		t.Fatalf("histogram round trip lost values: %+v", hs)
	}
}

// TestHotGate pins the enable gate: Hot is nil until telemetry is
// requested, and then is the default registry.
func TestHotGate(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(false)
	if Hot() != nil {
		t.Fatal("Hot() non-nil while disabled")
	}
	SetEnabled(true)
	if Hot() != Default() {
		t.Fatal("Hot() is not the default registry when enabled")
	}
}

// TestRegistryReset pins that Reset zeroes values but keeps handles live.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(9)
	r.Histogram("h").Observe(8)
	r.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter survived Reset with %d", c.Value())
	}
	if r.Histogram("h").Count() != 0 {
		t.Fatal("histogram survived Reset")
	}
	c.Inc()
	if r.Counter("c").Value() != 1 {
		t.Fatal("handle went stale after Reset")
	}
}

// TestPhaseLog pins RecordPhase's gating, deterministic ordering and
// dedup, and the peak registry.
func TestPhaseLog(t *testing.T) {
	ResetTelemetry()
	SetEnabled(false)
	RecordPhase(PhaseRecord{App: "x", Phase: 1})
	if len(Phases()) != 0 {
		t.Fatal("RecordPhase recorded while disabled")
	}
	SetEnabled(true)
	defer func() { SetEnabled(false); ResetTelemetry() }()
	rows := []PhaseRecord{
		{App: "bt", Config: "A", Source: "measured", Phase: 2},
		{App: "bt", Config: "A", Source: "measured", Phase: 1},
		{App: "bt", Config: "A", Source: "estimate", Phase: 1},
		{App: "bt", Config: "A", Source: "measured", Phase: 1}, // dup
	}
	for _, r := range rows {
		RecordPhase(r)
	}
	got := Phases()
	if len(got) != 3 {
		t.Fatalf("got %d rows, want 3 (dup collapsed): %+v", len(got), got)
	}
	if got[0].Source != "estimate" || got[1].Phase != 1 || got[2].Phase != 2 {
		t.Fatalf("rows not in canonical order: %+v", got)
	}

	RecordPeak("A", 100, 80)
	if w, r, ok := PeakFor("A"); !ok || w != 100 || r != 80 {
		t.Fatalf("PeakFor(A) = %v %v %v", w, r, ok)
	}
	if _, _, ok := PeakFor("Z"); ok {
		t.Fatal("PeakFor invented a peak")
	}
}

// TestPhasesTotalOrder pins that Phases sorts on every field. Rows that
// tie on app, config, source, np, phase and estimated time — the same
// phase of two different traces — come out in one order whatever order
// they were recorded in, and an exact duplicate collapses even when it
// was not recorded next to its twin.
func TestPhasesTotalOrder(t *testing.T) {
	SetEnabled(true)
	defer func() { SetEnabled(false); ResetTelemetry() }()
	base := PhaseRecord{App: "btio", Config: "configA", Source: "measured",
		Phase: 1, NP: 16, RS: 10628800, Weight: 1 << 30, Dir: "W"}
	smallRS := base
	smallRS.RS = 640 << 10
	heavier := base
	heavier.Weight = 2 << 30
	record := func(rows ...PhaseRecord) []PhaseRecord {
		ResetTelemetry()
		for _, r := range rows {
			RecordPhase(r)
		}
		return Phases()
	}
	a := record(base, smallRS, base, heavier)
	b := record(heavier, smallRS, base, base)
	if len(a) != 3 {
		t.Fatalf("got %d rows, want 3 (duplicate collapsed): %+v", len(a), a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("row order depends on recording order:\n%+v\n%+v", a, b)
	}
}
