package monitor

import (
	"testing"

	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/units"
)

func TestSamplesAtInterval(t *testing.T) {
	eng := des.NewEngine()
	d := disksim.NewDisk(eng, "d", disksim.SATA7200(units.TiB))
	m := Start(eng, []disksim.Device{d}, units.Second)
	eng.Spawn("w", func(p *des.Proc) {
		for i := int64(0); i < 5; i++ {
			d.Write(p, i*64*units.MiB, 64*units.MiB)
		}
	})
	eng.Schedule(6*units.Second, func() { m.Stop() })
	eng.Run()
	// t=0 baseline, one per second up to ~5s, plus the Stop snapshot.
	if n := len(m.Samples()); n < 6 || n > 9 {
		t.Fatalf("samples = %d", n)
	}
	last := m.Samples()[len(m.Samples())-1]
	if last.Counters[0].WriteBytes != 5*64*units.MiB {
		t.Fatalf("final counters %+v", last.Counters[0])
	}
}

func TestRatesDeriveDeltas(t *testing.T) {
	eng := des.NewEngine()
	d := disksim.NewDisk(eng, "d", disksim.DiskParams{
		SeqReadBW: units.MBps(100), SeqWriteBW: units.MBps(100),
		CapacityB: units.TiB, NearThreshold: units.MiB,
	})
	m := Start(eng, []disksim.Device{d}, units.Second)
	eng.Spawn("w", func(p *des.Proc) {
		// Steady 100 MB/s stream for 4 seconds.
		for i := int64(0); i < 8; i++ {
			d.Write(p, i*50*units.MiB, 50*units.MiB)
		}
	})
	eng.Schedule(4*units.Second, func() { m.Stop() })
	eng.Run()
	rates := m.Rates()
	if len(rates) < 3 {
		t.Fatalf("rates = %d", len(rates))
	}
	mid := rates[1] // a fully busy interval
	if bw := mid.WriteBW[0].MBpsValue(); bw < 95 || bw > 105 {
		t.Fatalf("write rate %.1f MB/s, want ≈100", bw)
	}
	wantSectors := 100 * float64(units.MiB) / 512
	if s := mid.SectorsWrit[0]; s < wantSectors*0.95 || s > wantSectors*1.05 {
		t.Fatalf("sectors/s = %.0f, want ≈%.0f", s, wantSectors)
	}
	if u := mid.Utilization[0]; u < 0.9 || u > 1.0 {
		t.Fatalf("utilization %.2f, want ≈1", u)
	}
}

func TestIdleIntervalsShowZeroRates(t *testing.T) {
	eng := des.NewEngine()
	d := disksim.NewDisk(eng, "d", disksim.SATA7200(units.TiB))
	m := Start(eng, []disksim.Device{d}, units.Second)
	eng.Spawn("w", func(p *des.Proc) {
		d.Write(p, 0, units.MiB)
		p.Sleep(3 * units.Second) // idle gap
		d.Write(p, units.MiB, units.MiB)
	})
	eng.Schedule(4*units.Second, func() { m.Stop() })
	eng.Run()
	rates := m.Rates()
	sawIdle := false
	for _, r := range rates {
		if r.WriteBW[0] == 0 && r.Utilization[0] == 0 {
			sawIdle = true
		}
	}
	if !sawIdle {
		t.Fatal("no idle interval detected")
	}
}

func TestStopIsIdempotentAndEndsSampling(t *testing.T) {
	eng := des.NewEngine()
	d := disksim.NewDisk(eng, "d", disksim.SATA7200(units.TiB))
	m := Start(eng, []disksim.Device{d}, units.Second)
	eng.Schedule(2*units.Second, func() { m.Stop(); m.Stop() })
	eng.Run() // must terminate: sampling chain must not persist
	if len(m.Samples()) == 0 {
		t.Fatal("no samples")
	}
}

func TestNamesMatchDevices(t *testing.T) {
	eng := des.NewEngine()
	a := disksim.NewDisk(eng, "alpha", disksim.SATA7200(units.TiB))
	b := disksim.NewDisk(eng, "beta", disksim.SATA7200(units.TiB))
	m := Start(eng, []disksim.Device{a, b}, units.Second)
	m.Stop()
	eng.Run()
	names := m.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("names %v", names)
	}
}
