package disksim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"iophases/internal/des"
	"iophases/internal/units"
)

func testDiskParams() DiskParams {
	return DiskParams{
		SeqReadBW:     units.MBps(100),
		SeqWriteBW:    units.MBps(80),
		SeekTime:      10 * units.Millisecond,
		Overhead:      0,
		CapacityB:     100 * units.GiB,
		NearThreshold: units.MiB,
	}
}

// measure runs fn in a fresh engine and returns the virtual time it took.
func measure(t *testing.T, fn func(eng *des.Engine, p *des.Proc)) units.Duration {
	t.Helper()
	eng := des.NewEngine()
	var took units.Duration
	eng.Spawn("m", func(p *des.Proc) {
		start := p.Now()
		fn(eng, p)
		took = p.Now() - start
	})
	eng.Run()
	return took
}

func TestDiskSequentialReadRate(t *testing.T) {
	took := measure(t, func(eng *des.Engine, p *des.Proc) {
		d := NewDisk(eng, "d", testDiskParams())
		for i := int64(0); i < 10; i++ {
			d.Read(p, i*10*units.MiB, 10*units.MiB)
		}
	})
	// 100 MiB at 100 MB/s + one initial seek.
	want := units.Second + 10*units.Millisecond
	if took != want {
		t.Fatalf("sequential read took %v, want %v", took, want)
	}
}

func TestDiskRandomPaysSeeks(t *testing.T) {
	seq := measure(t, func(eng *des.Engine, p *des.Proc) {
		d := NewDisk(eng, "d", testDiskParams())
		for i := int64(0); i < 100; i++ {
			d.Read(p, i*64*units.KiB, 64*units.KiB)
		}
	})
	rnd := measure(t, func(eng *des.Engine, p *des.Proc) {
		d := NewDisk(eng, "d", testDiskParams())
		for i := int64(0); i < 100; i++ {
			// 100 MiB stride defeats the near-threshold.
			d.Read(p, (i%2)*50*units.GiB+i*64*units.KiB, 64*units.KiB)
		}
	})
	if rnd < 10*seq {
		t.Fatalf("random (%v) should be ≫ sequential (%v)", rnd, seq)
	}
}

func TestDiskCounters(t *testing.T) {
	eng := des.NewEngine()
	d := NewDisk(eng, "d", testDiskParams())
	eng.Spawn("m", func(p *des.Proc) {
		d.Write(p, 0, 4*units.MiB)
		d.Read(p, 0, 2*units.MiB)
	})
	eng.Run()
	c := d.Counters()
	if c.WriteBytes != 4*units.MiB || c.ReadBytes != 2*units.MiB {
		t.Fatalf("counters %+v", c)
	}
	if c.SectorsWritten() != 4*units.MiB/512 {
		t.Fatalf("sectors written %d", c.SectorsWritten())
	}
	if c.WriteOps != 1 || c.ReadOps != 1 {
		t.Fatalf("ops %+v", c)
	}
}

func TestDiskQueueSerializes(t *testing.T) {
	eng := des.NewEngine()
	d := NewDisk(eng, "d", testDiskParams())
	for i := 0; i < 4; i++ {
		eng.Spawn(fmt.Sprintf("w%d", i), func(p *des.Proc) {
			d.Write(p, 0, 80*units.MiB)
		})
	}
	eng.Run()
	// 4 × 1s writes must serialize (plus one seek; offset 0 repeats so
	// only the first seeks).
	if eng.Now() < 4*units.Second {
		t.Fatalf("parallel writes finished in %v; disk must serialize", eng.Now())
	}
}

func TestRAID0ScalesBandwidth(t *testing.T) {
	single := measure(t, func(eng *des.Engine, p *des.Proc) {
		d := NewDisk(eng, "d", testDiskParams())
		d.Read(p, 0, 400*units.MiB)
	})
	striped := measure(t, func(eng *des.Engine, p *des.Proc) {
		var members []*Disk
		for i := 0; i < 4; i++ {
			members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
		}
		a := NewArray(eng, "r0", RAID0, members, 256*units.KiB)
		a.Read(p, 0, 400*units.MiB)
	})
	speedup := float64(single) / float64(striped)
	if speedup < 3.5 || speedup > 4.5 {
		t.Fatalf("RAID0x4 speedup = %.2f, want ≈4", speedup)
	}
}

func TestRAID5FullStripeAvoidsRMW(t *testing.T) {
	newR5 := func(eng *des.Engine) *Array {
		var members []*Disk
		for i := 0; i < 5; i++ {
			members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
		}
		return NewArray(eng, "r5", RAID5, members, 256*units.KiB)
	}
	stripe := int64(4) * 256 * units.KiB // 4 data disks × unit
	full := measure(t, func(eng *des.Engine, p *des.Proc) {
		a := newR5(eng)
		for i := int64(0); i < 64; i++ {
			a.Write(p, i*stripe, stripe)
		}
	})
	partial := measure(t, func(eng *des.Engine, p *des.Proc) {
		a := newR5(eng)
		for i := int64(0); i < 64; i++ {
			// Same volume in misaligned sub-stripe writes.
			a.Write(p, i*stripe+128*units.KiB, stripe)
		}
	})
	if float64(partial) < 1.5*float64(full) {
		t.Fatalf("sub-stripe writes (%v) should pay RMW vs full-stripe (%v)", partial, full)
	}
}

func TestRAID5CapacityExcludesParity(t *testing.T) {
	eng := des.NewEngine()
	var members []*Disk
	for i := 0; i < 5; i++ {
		members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
	}
	a := NewArray(eng, "r5", RAID5, members, 256*units.KiB)
	if a.Capacity() != 4*100*units.GiB {
		t.Fatalf("capacity = %d", a.Capacity())
	}
	if a.PeakBandwidth(false).MBpsValue() != 400 {
		t.Fatalf("peak read = %v", a.PeakBandwidth(false))
	}
}

func TestStripeChunksCoverExtent(t *testing.T) {
	f := func(off uint32, sz uint16) bool {
		eng := des.NewEngine()
		var members []*Disk
		for i := 0; i < 4; i++ {
			members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
		}
		a := NewArray(eng, "r0", RAID0, members, 64*units.KiB)
		offset := int64(off)
		size := int64(sz) + 1
		var total int64
		for _, c := range a.stripeChunks(offset, size) {
			if c.size <= 0 || c.disk < 0 || c.disk >= 4 {
				return false
			}
			total += c.size
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceMergesSequentialRuns(t *testing.T) {
	eng := des.NewEngine()
	var members []*Disk
	for i := 0; i < 4; i++ {
		members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
	}
	a := NewArray(eng, "r0", RAID0, members, 64*units.KiB)
	chunks := a.stripeChunks(0, 16*units.MiB)
	if len(chunks) != 4 {
		t.Fatalf("16 MiB over 4 disks should coalesce to 4 chunks, got %d", len(chunks))
	}
	for _, c := range chunks {
		if c.size != 4*units.MiB {
			t.Fatalf("chunk %+v, want 4 MiB each", c)
		}
	}
}

func TestWriteCacheAbsorbsBurst(t *testing.T) {
	eng := des.NewEngine()
	d := NewDisk(eng, "d", testDiskParams())
	c := NewWriteCache(eng, "c", d, CacheParams{Capacity: 64 * units.MiB, MemBW: units.GBps(2), Chunk: 4 * units.MiB})
	var burst units.Duration
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		c.Write(p, 0, 32*units.MiB)
		burst = p.Now() - start
		c.Drain(p)
	})
	eng.Run()
	diskTime := units.TransferTime(32*units.MiB, testDiskParams().SeqWriteBW)
	if burst >= diskTime/4 {
		t.Fatalf("burst took %v, want ≪ disk time %v", burst, diskTime)
	}
	if got := d.Counters().WriteBytes; got != 32*units.MiB {
		t.Fatalf("drained %d bytes to disk", got)
	}
}

func TestWriteCacheSustainedPacesAtDiskRate(t *testing.T) {
	eng := des.NewEngine()
	d := NewDisk(eng, "d", testDiskParams())
	c := NewWriteCache(eng, "c", d, CacheParams{Capacity: 16 * units.MiB, MemBW: units.GBps(2), Chunk: 4 * units.MiB})
	var took units.Duration
	eng.Spawn("w", func(p *des.Proc) {
		start := p.Now()
		for i := int64(0); i < 32; i++ {
			c.Write(p, i*16*units.MiB, 16*units.MiB)
		}
		c.Drain(p)
		took = p.Now() - start
	})
	eng.Run()
	wantSec := float64(512*units.MiB) / float64(units.MBps(80))
	if math.Abs(took.Seconds()-wantSec) > 0.20*wantSec {
		t.Fatalf("sustained 512 MiB took %v, want ≈%.2fs (disk-paced)", took, wantSec)
	}
}

func TestWriteCacheReadHit(t *testing.T) {
	eng := des.NewEngine()
	d := NewDisk(eng, "d", testDiskParams())
	c := NewWriteCache(eng, "c", d, DefaultCacheParams())
	var hit, miss units.Duration
	eng.Spawn("w", func(p *des.Proc) {
		c.Write(p, 0, 8*units.MiB)
		start := p.Now()
		c.Read(p, 0, 8*units.MiB) // just written: hit
		hit = p.Now() - start
		start = p.Now()
		c.Read(p, units.GiB, 8*units.MiB) // cold: miss
		miss = p.Now() - start
	})
	eng.Run()
	if hit >= miss/4 {
		t.Fatalf("hit %v should be ≪ miss %v", hit, miss)
	}
}

func TestDegradedRAID5ReadsSlower(t *testing.T) {
	read := func(degrade bool) units.Duration {
		return measure(t, func(eng *des.Engine, p *des.Proc) {
			var members []*Disk
			for i := 0; i < 5; i++ {
				members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
			}
			a := NewArray(eng, "r5", RAID5, members, 256*units.KiB)
			if degrade {
				a.Fail(2)
			}
			for i := int64(0); i < 32; i++ {
				a.Read(p, i*4*units.MiB, 4*units.MiB)
			}
		})
	}
	healthy, degraded := read(false), read(true)
	if degraded <= healthy {
		t.Fatalf("degraded reads (%v) should cost more than healthy (%v)", degraded, healthy)
	}
	if float64(degraded) > 3*float64(healthy) {
		t.Fatalf("degraded overhead implausible: %v vs %v", degraded, healthy)
	}
}

func TestDegradedRAID5StillWrites(t *testing.T) {
	eng := des.NewEngine()
	var members []*Disk
	for i := 0; i < 5; i++ {
		members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
	}
	a := NewArray(eng, "r5", RAID5, members, 256*units.KiB)
	a.Fail(0)
	if !a.Degraded() {
		t.Fatal("not degraded")
	}
	eng.Spawn("w", func(p *des.Proc) {
		a.Write(p, 0, 8*units.MiB)
	})
	eng.Run()
	if members[0].Counters().WriteBytes != 0 {
		t.Fatal("failed member received writes")
	}
	if a.Counters().WriteBytes != 8*units.MiB {
		t.Fatalf("logical writes %d", a.Counters().WriteBytes)
	}
}

func TestRAID0CannotFail(t *testing.T) {
	eng := des.NewEngine()
	var members []*Disk
	for i := 0; i < 2; i++ {
		members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
	}
	a := NewArray(eng, "r0", RAID0, members, 256*units.KiB)
	defer func() {
		if recover() == nil {
			t.Fatal("RAID0 Fail did not panic")
		}
	}()
	a.Fail(0)
}

func TestSecondFailurePanics(t *testing.T) {
	eng := des.NewEngine()
	var members []*Disk
	for i := 0; i < 3; i++ {
		members = append(members, NewDisk(eng, fmt.Sprintf("d%d", i), testDiskParams()))
	}
	a := NewArray(eng, "r5", RAID5, members, 256*units.KiB)
	a.Fail(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double failure accepted")
		}
	}()
	a.Fail(2)
}

func TestJBODIndependentDisks(t *testing.T) {
	eng := des.NewEngine()
	j := NewJBOD(eng, "j", 3, testDiskParams())
	if j.Len() != 3 {
		t.Fatalf("len = %d", j.Len())
	}
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("w%d", i), func(p *des.Proc) {
			j.Disk(i).Write(p, 0, 80*units.MiB)
		})
	}
	eng.Run()
	// Independent disks run in parallel: 1s + seek, not 3s.
	if eng.Now() > 1200*units.Millisecond {
		t.Fatalf("JBOD parallel writes took %v", eng.Now())
	}
}

func TestPresetDiskParams(t *testing.T) {
	sata := SATA7200(80 * units.GiB)
	sas := SAS15K(160 * units.GiB)
	if sas.SeqReadBW <= sata.SeqReadBW {
		t.Fatal("SAS should outrun SATA")
	}
	if sas.SeekTime >= sata.SeekTime {
		t.Fatal("SAS should seek faster than SATA")
	}
	if sata.CapacityB != 80*units.GiB {
		t.Fatalf("capacity %d", sata.CapacityB)
	}
}

// TestRecentIndexKeepsRewrittenExtent: evicting the older of two writes
// of one extent must leave the newer one indexed while it is among the
// most recent capacity bytes, and only its own eviction drops it.
func TestRecentIndexKeepsRewrittenExtent(t *testing.T) {
	var x RecentIndex
	x.Reset(3 * units.MiB)
	x.Remember(0, units.MiB)
	x.Remember(0, units.MiB)
	x.Remember(units.MiB, units.MiB)
	x.Remember(2*units.MiB, units.MiB) // evicts the first write of [0, 1 MiB)
	if !x.Hit(0, units.MiB) {
		t.Fatal("rewritten extent un-indexed while its newer write is retained")
	}
	x.Remember(3*units.MiB, units.MiB) // evicts the second
	if x.Hit(0, units.MiB) {
		t.Fatal("extent still indexed after both its writes were evicted")
	}
}
