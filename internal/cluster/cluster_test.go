package cluster

import (
	"testing"

	"iophases/internal/des"
	"iophases/internal/units"
)

func TestPresetsBuild(t *testing.T) {
	for _, spec := range Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c := Build(spec)
			if c.FS == nil {
				t.Fatal("no filesystem")
			}
			if got := len(c.ComputeNodes()); got != spec.ComputeNodes {
				t.Fatalf("compute nodes = %d, want %d", got, spec.ComputeNodes)
			}
			if got := len(c.IONodes()); got != spec.Storage.IONodes {
				t.Fatalf("io nodes = %d, want %d", got, spec.Storage.IONodes)
			}
			if c.FS.Kind() != spec.Storage.Kind {
				t.Fatalf("fs kind = %q", c.FS.Kind())
			}
		})
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"configA", "configB", "configC", "finisterrae"} {
		if _, ok := PresetByName(name); !ok {
			t.Fatalf("preset %q missing", name)
		}
	}
	if _, ok := PresetByName("nope"); ok {
		t.Fatal("unexpected preset")
	}
}

func TestNodeOfRankBlockPlacement(t *testing.T) {
	c := Build(ConfigA()) // 8 nodes × 2 cores
	if n := c.NodeOfRank(0, 16); n != "cn00" {
		t.Fatalf("rank 0 on %s", n)
	}
	if n := c.NodeOfRank(1, 16); n != "cn00" {
		t.Fatalf("rank 1 on %s", n)
	}
	if n := c.NodeOfRank(2, 16); n != "cn01" {
		t.Fatalf("rank 2 on %s", n)
	}
	if n := c.NodeOfRank(15, 16); n != "cn07" {
		t.Fatalf("rank 15 on %s", n)
	}
}

func TestNodeOfRankCapacity(t *testing.T) {
	c := Build(ConfigA())
	defer func() {
		if recover() == nil {
			t.Fatal("overcommit did not panic")
		}
	}()
	c.NodeOfRank(0, 17)
}

func TestMaxProcs(t *testing.T) {
	if got := ConfigC().MaxProcs(); got != 128 {
		t.Fatalf("configC capacity %d, want 128 (holds the paper's 121-proc run)", got)
	}
	if got := Finisterrae().MaxProcs(); got < 121 {
		t.Fatalf("finisterrae capacity %d", got)
	}
}

func TestConfigAWriteIsNetworkBound(t *testing.T) {
	// The headline relationship of Table IX: device peak far above the
	// bandwidth any client sees through the 1GbE NFS path.
	c := Build(ConfigA())
	var took units.Duration
	c.Eng.Spawn("w", func(p *des.Proc) {
		f := c.FS.Open(p, c.NodeOfRank(0, 1), "/t")
		start := p.Now()
		f.Write(p, c.NodeOfRank(0, 1), 0, 256*units.MiB)
		c.FS.Sync(p)
		took = p.Now() - start
	})
	c.Eng.Run()
	bw := units.BandwidthOf(256*units.MiB, took).MBpsValue()
	peak := c.FS.PeakDeviceBandwidth(true).MBpsValue()
	if bw >= peak/2 {
		t.Fatalf("measured %0.f MB/s vs device peak %0.f MB/s: NFS should be network-bound", bw, peak)
	}
	if bw < 50 || bw > 120 {
		t.Fatalf("measured %0.f MB/s, want within 1GbE ballpark", bw)
	}
}

func TestFinisterraeOutrunsConfigCOnSharedFile(t *testing.T) {
	run := func(spec Spec) units.Bandwidth {
		c := Build(spec)
		const np = 4
		var took units.Duration
		c.Eng.Spawn("t", func(p *des.Proc) {
			p.Fork("writer", np, func(hp *des.Proc, r int) {
				node := c.NodeOfRank(r, np)
				f := c.FS.Open(hp, node, "/shared")
				f.Write(hp, node, int64(r)*64*units.MiB, 64*units.MiB)
			})
			c.FS.Sync(p)
			took = p.Now()
		})
		c.Eng.Run()
		return units.BandwidthOf(np*64*units.MiB, took)
	}
	cc, fi := run(ConfigC()), run(Finisterrae())
	if fi <= cc {
		t.Fatalf("finisterrae %v should beat configC %v", fi, cc)
	}
}

func TestPlacementStrategies(t *testing.T) {
	c := Build(ConfigA()) // 8 nodes × 2 cores
	if c.Place(0, 4, PlaceBlock) != "cn00" || c.Place(1, 4, PlaceBlock) != "cn00" {
		t.Fatal("block placement")
	}
	if c.Place(0, 4, PlaceScatter) != "cn00" || c.Place(1, 4, PlaceScatter) != "cn01" {
		t.Fatal("scatter placement")
	}
	// Scatter wraps past the node count.
	if c.Place(9, 16, PlaceScatter) != "cn01" {
		t.Fatalf("wrap: %s", c.Place(9, 16, PlaceScatter))
	}
}
