package iozone

import (
	"math"
	"strings"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/units"
)

func testDisk(eng *des.Engine) *disksim.Disk {
	return disksim.NewDisk(eng, "d", disksim.DiskParams{
		SeqReadBW: units.MBps(100), SeqWriteBW: units.MBps(80),
		SeekTime: 10 * units.Millisecond, CapacityB: units.TiB,
		NearThreshold: units.MiB,
	})
}

func TestValidate(t *testing.T) {
	ok := Params{FileSize: 64 * units.MiB, RequestSize: units.MiB, Pattern: Sequential}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.FileSize = 63*units.MiB + 1
	if bad.Validate() == nil {
		t.Fatal("non-multiple file size accepted")
	}
	bad = ok
	bad.Pattern = "bogus"
	if bad.Validate() == nil {
		t.Fatal("bogus pattern accepted")
	}
	bad = ok
	bad.Pattern = Strided
	if bad.Validate() == nil {
		t.Fatal("strided without stride count accepted")
	}
	capped := Params{FileSize: MaxPassRequests * 4 * units.KiB, RequestSize: 4 * units.KiB, Pattern: Sequential}
	if err := capped.Validate(); err != nil {
		t.Fatalf("a pass of exactly MaxPassRequests refused: %v", err)
	}
	capped.FileSize += capped.RequestSize
	if err := capped.Validate(); err == nil || !strings.Contains(err.Error(), "MaxPassRequests") {
		t.Fatalf("a pass one request past MaxPassRequests: err = %v", err)
	}
}

// TestPeakParams pins the pass PeakOfConfig runs for given sizes and the
// sizes it refuses: a request of 0 would divide by zero, and a negative
// file on a cached configuration would be raised to the cache rule's
// size.
func TestPeakParams(t *testing.T) {
	p, err := PeakParams(cluster.ConfigA(), 64*units.MiB, 3*units.MiB)
	if want := 2*units.GiB + units.MiB; err != nil || p.FileSize != want || p.RequestSize != 3*units.MiB {
		t.Fatalf("PeakParams(configA, 64m, 3m) = %+v, %v; want file %d (4×cache, rounded up to whole requests)", p, err, want)
	}
	for _, c := range []struct{ file, rs int64 }{
		{2 * units.GiB, 0}, {-units.GiB, 8 * units.MiB}, {math.MaxInt64 - 1, 3}, {2 * units.GiB, 1},
	} {
		if p, err := PeakParams(cluster.ConfigA(), c.file, c.rs); err == nil {
			t.Errorf("PeakParams(configA, %d, %d) = %+v, want an error", c.file, c.rs, p)
		}
	}
}

func TestOffsetsCoverFileExactlyOnce(t *testing.T) {
	for _, pat := range []Pattern{Sequential, Strided, Random} {
		p := Params{FileSize: 16 * units.MiB, RequestSize: units.MiB, Pattern: pat, StrideCount: 4}
		offs := p.offsets()
		if len(offs) != 16 {
			t.Fatalf("%s: %d offsets", pat, len(offs))
		}
		seen := make(map[int64]bool)
		for _, o := range offs {
			if o%units.MiB != 0 || o < 0 || o >= 16*units.MiB || seen[o] {
				t.Fatalf("%s: bad offset %d", pat, o)
			}
			seen[o] = true
		}
	}
}

func TestSequentialMatchesDiskRates(t *testing.T) {
	eng := des.NewEngine()
	d := testDisk(eng)
	res := RunOnDevice(eng, d, Params{
		FileSize: 800 * units.MiB, RequestSize: 8 * units.MiB, Pattern: Sequential,
	})
	if w := res.WriteBW.MBpsValue(); w < 75 || w > 81 {
		t.Fatalf("write bw %.1f, want ≈80", w)
	}
	if r := res.ReadBW.MBpsValue(); r < 94 || r > 101 {
		t.Fatalf("read bw %.1f, want ≈100", r)
	}
	if res.IOPSw <= 0 || res.IOPSr <= 0 {
		t.Fatalf("iops %v %v", res.IOPSw, res.IOPSr)
	}
}

func TestRandomSlowerThanSequential(t *testing.T) {
	run := func(pat Pattern) Result {
		eng := des.NewEngine()
		return RunOnDevice(eng, testDisk(eng), Params{
			FileSize: 256 * units.MiB, RequestSize: 256 * units.KiB,
			Pattern: pat, StrideCount: 8, Seed: 7,
		})
	}
	seq, rnd := run(Sequential), run(Random)
	if rnd.ReadBW >= seq.ReadBW/4 {
		t.Fatalf("random read %v not ≪ sequential %v", rnd.ReadBW, seq.ReadBW)
	}
}

func TestStridedBetweenSequentialAndRandom(t *testing.T) {
	run := func(pat Pattern) units.Bandwidth {
		eng := des.NewEngine()
		return RunOnDevice(eng, testDisk(eng), Params{
			FileSize: 256 * units.MiB, RequestSize: 256 * units.KiB,
			Pattern: pat, StrideCount: 16, Seed: 3,
		}).ReadBW
	}
	seq, str, rnd := run(Sequential), run(Strided), run(Random)
	// A 16-request stride defeats the track buffer entirely, so strided
	// lands in the same seek-bound regime as random (occasionally random
	// wins by luck when shuffled neighbours fall close); both must sit
	// far below sequential.
	if str > seq/2 || rnd > seq/2 {
		t.Fatalf("ordering violated: seq=%v strided=%v random=%v", seq, str, rnd)
	}
	if diff := float64(str-rnd) / float64(rnd); diff > 0.25 || diff < -0.25 {
		t.Fatalf("strided %v and random %v should be in the same regime", str, rnd)
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	run := func(seed int64) units.Bandwidth {
		eng := des.NewEngine()
		return RunOnDevice(eng, testDisk(eng), Params{
			FileSize: 64 * units.MiB, RequestSize: units.MiB,
			Pattern: Random, Seed: seed,
		}).ReadBW
	}
	if run(42) != run(42) {
		t.Fatal("same seed produced different results")
	}
}

func TestCacheDrainIncludedInWriteTime(t *testing.T) {
	eng := des.NewEngine()
	d := testDisk(eng)
	c := disksim.NewWriteCache(eng, "c", d, disksim.CacheParams{
		Capacity: units.GiB, MemBW: units.GBps(4), Chunk: 4 * units.MiB,
	})
	res := RunOnDevice(eng, c, Params{
		FileSize: 512 * units.MiB, RequestSize: 8 * units.MiB, Pattern: Sequential,
	})
	// The whole file fits in cache; without the drain the write pass
	// would report ≈4 GB/s. With the fsync it must report ≈ disk rate.
	if w := res.WriteBW.MBpsValue(); w > 120 {
		t.Fatalf("write bw %.1f: cache leaked into IOzone timing", w)
	}
}

func TestSweepCoversPatternsAndSizes(t *testing.T) {
	eng := des.NewEngine()
	d := testDisk(eng)
	results := Sweep(eng, d, 64*units.MiB, []int64{256 * units.KiB, units.MiB})
	if len(results) != 6 {
		t.Fatalf("sweep produced %d results, want 6", len(results))
	}
	for _, r := range results {
		if r.WriteBW <= 0 || r.ReadBW <= 0 {
			t.Fatalf("empty result %+v", r.Params)
		}
	}
}

func TestPeakOfConfigSumsIONodes(t *testing.T) {
	// Config B has 3 I/O nodes with one ~72 MB/s disk each; Eq. 4 sums
	// them.
	w, r := PeakOfConfig(cluster.ConfigB(), 512*units.MiB, 8*units.MiB)
	if w.MBpsValue() < 180 || w.MBpsValue() > 240 {
		t.Fatalf("configB peak write %.0f, want ≈3×72", w.MBpsValue())
	}
	if r < w {
		t.Fatalf("peak read %v below peak write %v on cacheless JBOD", r, w)
	}
}

func TestPeakOfConfigDefeatsCache(t *testing.T) {
	// Config A's NAS has a 512 MiB cache; the FZ rule must prevent it
	// from inflating the peak beyond the RAID's streaming rate.
	w, _ := PeakOfConfig(cluster.ConfigA(), 64*units.MiB /* deliberately small */, 8*units.MiB)
	if w.MBpsValue() > 350 {
		t.Fatalf("peak write %.0f MB/s: cache defeated the FZ>=2RAM rule", w.MBpsValue())
	}
}
