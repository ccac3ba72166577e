package predict

import (
	"reflect"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/ior"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

func TestStandardVariantsShape(t *testing.T) {
	vars := StandardVariants(cluster.ConfigA())
	if len(vars) < 6 {
		t.Fatalf("variants = %d", len(vars))
	}
	names := map[string]bool{}
	for _, v := range vars {
		if names[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		names[v.Name] = true
		// Every variant must build.
		c := cluster.Build(v.Spec)
		if c.FS == nil {
			t.Fatalf("variant %q does not build", v.Name)
		}
	}
	for _, want := range []string{"baseline", "10GbE", "IB20G", "raid0", "single-disk"} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestExploreRanksVariants(t *testing.T) {
	// A bandwidth-bound write model: faster networks and striped I/O
	// nodes must rank at or above the 1GbE NFS baseline.
	m := measureMadbench(t, cluster.ConfigA(), 8, 8*units.MiB)
	results, err := Explore(m, StandardVariants(cluster.ConfigA()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 6 {
		t.Fatalf("results %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Total < results[i-1].Total {
			t.Fatal("results not sorted best-first")
		}
	}
	pos := map[string]int{}
	for i, r := range results {
		pos[r.Variant.Name] = i
	}
	if pos["IB20G"] > pos["baseline"] {
		t.Fatalf("InfiniBand (%d) should not rank below the 1GbE baseline (%d)",
			pos["IB20G"], pos["baseline"])
	}
	if results[len(results)-1].Variant.Name == "IB20G" {
		t.Fatal("IB20G ranked last")
	}
	// Every estimate is positive and consistent with its phases.
	for _, r := range results {
		if r.Total <= 0 || r.Est == nil {
			t.Fatalf("bad result %+v", r.Variant.Name)
		}
	}
}

// TestExploreParallelEqualsSerial is the sweep pool's determinism contract
// at the API level: the same exploration at any concurrency returns the
// same ranking with the same numbers, cache hot or cold.
func TestExploreParallelEqualsSerial(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 8, 8*units.MiB)
	variants := StandardVariants(cluster.ConfigA())

	runAt := func(workers int) []ExploreResult {
		defer sweep.SetConcurrency(0)
		sweep.SetConcurrency(workers)
		simcache.Reset() // cold cache each time: equality must not depend on it
		rs, err := Explore(m, variants)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	serial := runAt(1)
	parallel := runAt(8)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Variant.Name != parallel[i].Variant.Name ||
			serial[i].Total != parallel[i].Total {
			t.Fatalf("rank %d differs: serial %s/%v, parallel %s/%v", i,
				serial[i].Variant.Name, serial[i].Total,
				parallel[i].Variant.Name, parallel[i].Total)
		}
		if !reflect.DeepEqual(serial[i].Est.Phases, parallel[i].Est.Phases) {
			t.Fatalf("per-phase estimates differ for %s", serial[i].Variant.Name)
		}
	}

	// Warm cache must not change results either.
	warm, err := Explore(m, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Total != warm[i].Total {
			t.Fatalf("warm-cache result differs at rank %d", i)
		}
	}
	if hit, _, _ := simcache.Stats(); hit == 0 {
		t.Fatal("second exploration produced no cache hits")
	}
}

// TestEstimateParallelEqualsSerial pins the per-phase fan-out inside
// EstimateTimeOpts: IORRuns (dedup count) and every bandwidth must be
// concurrency-independent.
func TestEstimateParallelEqualsSerial(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigB(), 8, 8*units.MiB)
	runAt := func(workers int) *Estimate {
		defer sweep.SetConcurrency(0)
		sweep.SetConcurrency(workers)
		simcache.Reset()
		est, err := EstimateTime(m, cluster.ConfigB())
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	serial := runAt(1)
	parallel := runAt(8)
	if serial.IORRuns != parallel.IORRuns {
		t.Fatalf("IORRuns %d vs %d", serial.IORRuns, parallel.IORRuns)
	}
	if serial.TotalCH != parallel.TotalCH {
		t.Fatalf("TotalCH %v vs %v", serial.TotalCH, parallel.TotalCH)
	}
	for i := range serial.Phases {
		if serial.Phases[i].BWch != parallel.Phases[i].BWch {
			t.Fatalf("phase %d BW_CH differs", i)
		}
	}
}

// A cold Explore misses once per distinct replay, as Fingerprint counts
// them, and hits nothing; a second Explore over the same variants hits
// once per distinct replay and misses nothing.
func TestExploreCacheTraffic(t *testing.T) {
	m := measureMadbench(t, cluster.ConfigA(), 4, units.MiB)
	variants := StandardVariants(cluster.ConfigA())
	distinct := map[string]bool{}
	for _, v := range variants {
		for _, pm := range m.Phases {
			distinct[simcache.Fingerprint(v.Spec, ior.FromReplay(pm.Replay(m.AccessType)))] = true
		}
	}
	n := uint64(len(distinct))
	simcache.Reset()
	defer simcache.Reset()
	for i, want := range []struct{ hits, misses uint64 }{{0, n}, {n, n}} {
		if _, err := Explore(m, variants); err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := simcache.Stats(); hits != want.hits || misses != want.misses {
			t.Fatalf("after Explore %d: %d hits, %d misses; want %d, %d (%d distinct replays)",
				i+1, hits, misses, want.hits, want.misses, n)
		}
	}
}
