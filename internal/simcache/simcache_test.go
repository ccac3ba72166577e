package simcache

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/disksim"
	"iophases/internal/ior"
	"iophases/internal/netsim"
	"iophases/internal/obs"
	"iophases/internal/units"
)

func testParams() ior.Params {
	return ior.Params{
		NP: 2, BlockSize: 4 * units.MiB, Transfer: units.MiB,
		Segments: 1, DoWrite: true, Fsync: true,
	}
}

// Two specs that describe different hardware must never collide, even when
// they share a Name — otherwise a cache hit would return the wrong
// configuration's bandwidth.
func TestKeySeparatesPhysicalFields(t *testing.T) {
	base := cluster.ConfigA()
	p := testParams()
	want := Fingerprint(base, p)

	mutations := map[string]func(s *cluster.Spec){
		"net":        func(s *cluster.Spec) { s.Net = netsim.Infiniband20G() },
		"disk":       func(s *cluster.Spec) { s.Storage.Disk = disksim.SAS15K(100 * units.GiB) },
		"ionodes":    func(s *cluster.Spec) { s.Storage.IONodes = 4 },
		"raid-level": func(s *cluster.Spec) { s.Storage.RAID.Level = disksim.RAID0 },
		"raid-nil":   func(s *cluster.Spec) { s.Storage.RAID = nil },
		"cache-nil":  func(s *cluster.Spec) { s.Storage.Cache = nil },
		"stripe":     func(s *cluster.Spec) { s.Storage.FSStripe = 128 * units.KiB },
		"cores":      func(s *cluster.Spec) { s.CoresPerNode = 8 },
		// Less than the rounding of Duration.String and Bandwidth.String,
		// which a formatted key would drop.
		"latency+300ns":   func(s *cluster.Spec) { s.Net.Latency += 300 * units.Nanosecond },
		"bandwidth+1kB/s": func(s *cluster.Spec) { s.Net.Bandwidth += 1000 },
	}
	for name, mutate := range mutations {
		s := base
		if s.Storage.RAID != nil { // deep-copy pointers before mutating
			r := *s.Storage.RAID
			s.Storage.RAID = &r
		}
		if s.Storage.Cache != nil {
			c := *s.Storage.Cache
			s.Storage.Cache = &c
		}
		mutate(&s)
		if Fingerprint(s, p) == want {
			t.Errorf("mutation %q does not change the fingerprint", name)
		}
	}

	p2 := p
	p2.Transfer = 2 * units.MiB
	if Fingerprint(base, p2) == want {
		t.Error("params mutation does not change the fingerprint")
	}
	p3 := p
	p3.Collective = true
	if Fingerprint(base, p3) == want {
		t.Error("collective flag does not change the fingerprint")
	}

	// A spec a fraction of a unit away from a cached one gets its own run.
	Reset()
	defer Reset()
	RunIOR(base, p)
	slower := base
	slower.Net.Latency += 300 * units.Nanosecond
	if got, fresh := RunIOR(slower, p), ior.Run(slower, p); got != fresh {
		t.Errorf("latency+300ns: RunIOR write time %d ns, a fresh ior.Run gives %d ns", got.WriteTime, fresh.WriteTime)
	}
}

// Pointer identity must not leak into the key: two separately-allocated but
// equal RAID/Cache specs fingerprint equally.
func TestKeyDereferencesPointers(t *testing.T) {
	a := cluster.ConfigA()
	b := cluster.ConfigA() // fresh allocations of Storage.RAID and Storage.Cache
	if Fingerprint(a, testParams()) != Fingerprint(b, testParams()) {
		t.Fatal("fresh but equal specs fingerprint differently")
	}
}

// A kind the key encoding does not cover panics and names its type, so a
// field of such a kind fails every key test instead of keying loosely.
func TestKeyEncodingPanicsOnUncoveredKind(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "map[string]int") {
			t.Fatalf("panic %q does not name the map type", msg)
		}
	}()
	appendValue(nil, reflect.ValueOf(struct{ M map[string]int }{}))
}

func TestRunIORCachesAndMatches(t *testing.T) {
	Reset()
	defer Reset()
	spec := cluster.ConfigB()
	p := testParams()

	first := RunIOR(spec, p)
	if h, m, _ := Stats(); h != 0 || m != 1 {
		t.Fatalf("after first run: hits=%d misses=%d", h, m)
	}
	second := RunIOR(spec, p)
	if h, m, _ := Stats(); h != 1 || m != 1 {
		t.Fatalf("after second run: hits=%d misses=%d", h, m)
	}
	if first != second {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	// The cached result must equal a fresh simulation bit for bit —
	// determinism is what makes memoization sound.
	fresh := ior.Run(spec, p)
	if first.WriteBW != fresh.WriteBW || first.WriteTime != fresh.WriteTime {
		t.Fatalf("cached %v != fresh %v", first.WriteBW, fresh.WriteBW)
	}
}

func TestRunIORBypassesForTracedRuns(t *testing.T) {
	Reset()
	defer Reset()
	p := testParams()
	p.TraceRun = true
	r1 := RunIOR(cluster.ConfigB(), p)
	r2 := RunIOR(cluster.ConfigB(), p)
	if r1.Trace == nil || r2.Trace == nil || r1.Trace == r2.Trace {
		t.Fatal("traced runs must not share a cached trace")
	}
	if h, m, by := Stats(); h != 0 || m != 0 || by != 2 {
		t.Fatalf("stats %d/%d/%d, want 0/0/2", h, m, by)
	}
}

// Concurrent misses on one key run the simulation once and agree on the
// result (singleflight).
func TestRunIORSingleflight(t *testing.T) {
	Reset()
	defer Reset()
	spec := cluster.ConfigB()
	p := testParams()
	const n = 8
	results := make([]ior.Result, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i] = RunIOR(spec, p)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
	if h, m, _ := Stats(); h+m != n || m < 1 {
		t.Fatalf("stats hits=%d misses=%d, want %d total with ≥1 miss", h, m, n)
	}
	if Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", Len())
	}
}

func TestPeakBandwidthCached(t *testing.T) {
	Reset()
	defer Reset()
	w1, r1 := PeakBandwidth(cluster.ConfigB(), 64*units.MiB, units.MiB)
	w2, r2 := PeakBandwidth(cluster.ConfigB(), 64*units.MiB, units.MiB)
	if w1 != w2 || r1 != r2 {
		t.Fatal("cached peak differs")
	}
	if h, m, _ := Stats(); h != 1 || m != 1 {
		t.Fatalf("stats hits=%d misses=%d", h, m)
	}
	// Different sweep sizes are different content.
	PeakBandwidth(cluster.ConfigB(), 64*units.MiB, 2*units.MiB)
	if _, m, _ := Stats(); m != 2 {
		t.Fatalf("misses=%d, want 2", m)
	}
}

// TestCountersLiveOnObsRegistry pins satellite wiring: the cache's traffic
// counters are registered metrics, so every -metrics dump carries them and
// Stats() is just a view over the registry.
func TestCountersLiveOnObsRegistry(t *testing.T) {
	Reset()
	defer Reset()
	spec := cluster.ConfigB()
	p := testParams()
	RunIOR(spec, p)
	RunIOR(spec, p)
	reg := obs.Default()
	if got := reg.Counter("simcache/misses").Value(); got != 1 {
		t.Fatalf("simcache/misses = %d, want 1", got)
	}
	if got := reg.Counter("simcache/hits").Value(); got != 1 {
		t.Fatalf("simcache/hits = %d, want 1", got)
	}
	h, m, _ := Stats()
	if h != 1 || m != 1 {
		t.Fatalf("Stats() = %d/%d, want 1/1", h, m)
	}
	Reset()
	if reg.Counter("simcache/hits").Value() != 0 {
		t.Fatal("Reset did not zero the registry counters")
	}
}

// TestSingleflightWaitsCounted pins the new wait metric: a hit on an entry
// whose simulation is still in flight counts as a singleflight wait, a hit
// on a finished entry does not.
func TestSingleflightWaitsCounted(t *testing.T) {
	Reset()
	defer Reset()
	spec := cluster.ConfigB()
	p := testParams()
	const n = 8
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			RunIOR(spec, p)
		}()
	}
	wg.Wait()
	h, m, _ := Stats()
	waits := SingleflightWaits()
	if uint64(waits) > h {
		t.Fatalf("%d singleflight waits exceed %d hits", waits, h)
	}
	if h+m != n {
		t.Fatalf("stats %d/%d, want %d lookups", h, m, n)
	}
	// A hit after the entry settled must not count as a wait.
	before := SingleflightWaits()
	RunIOR(spec, p)
	if SingleflightWaits() != before {
		t.Fatal("settled-entry hit counted as a singleflight wait")
	}
}

// Occupancy gauges mirror Len and the cap on the obs default registry, so
// a dashboard scraping /metrics can tell a saturated cache from an idle one
// without in-process calls. They must track inserts and Reset, and show up
// in both exposition formats.
func TestOccupancyGaugesTrackCache(t *testing.T) {
	Reset()
	defer Reset()
	reg := obs.Default()
	if got := reg.Gauge("simcache/size").Value(); got != 0 {
		t.Fatalf("size gauge after Reset: %d", got)
	}
	if got := reg.Gauge("simcache/capacity").Value(); got != DefaultCapacity {
		t.Fatalf("capacity gauge %d != DefaultCapacity %d", got, DefaultCapacity)
	}

	RunIOR(cluster.ConfigB(), testParams())
	if got := reg.Gauge("simcache/size").Value(); got != int64(Len()) || got != 1 {
		t.Fatalf("size gauge %d, Len() %d, want 1", got, Len())
	}

	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		out  *bytes.Buffer
		name string
	}{
		{&text, "simcache/size"},
		{&text, "simcache/capacity"},
		{&text, "simcache/evictions"},
		{&prom, "# TYPE simcache_size gauge"},
		{&prom, "# TYPE simcache_evictions counter"},
	} {
		if !strings.Contains(want.out.String(), want.name) {
			t.Errorf("exposition output missing %q", want.name)
		}
	}
}
