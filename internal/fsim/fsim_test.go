package fsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

// rig bundles a small simulated cluster for filesystem tests.
type rig struct {
	eng *des.Engine
	fab *netsim.Fabric
}

func newRig(clients int) *rig {
	eng := des.NewEngine()
	fab := netsim.NewFabric(eng, "net", netsim.LinkParams{Bandwidth: units.MBps(100), Latency: 10 * units.Microsecond})
	for i := 0; i < clients; i++ {
		fab.AddEndpoint(fmt.Sprintf("cn%d", i))
	}
	return &rig{eng: eng, fab: fab}
}

func (r *rig) nfs(t *testing.T, diskBW float64) *FS {
	t.Helper()
	r.fab.AddEndpoint("nas")
	d := disksim.NewDisk(r.eng, "nas-disk", disksim.DiskParams{
		SeqReadBW: units.MBps(diskBW), SeqWriteBW: units.MBps(diskBW),
		SeekTime: 5 * units.Millisecond, CapacityB: units.TiB, NearThreshold: units.MiB,
	})
	return New(r.eng, r.fab, Params{
		Name: "nfs", Kind: "nfs",
		Targets:    []Target{{Node: "nas", Dev: d}},
		StripeSize: 64 * units.KiB,
	})
}

func (r *rig) striped(t *testing.T, n int, diskBW float64) *FS {
	t.Helper()
	var targets []Target
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("ion%d", i)
		r.fab.AddEndpoint(node)
		d := disksim.NewDisk(r.eng, node+"-disk", disksim.DiskParams{
			SeqReadBW: units.MBps(diskBW), SeqWriteBW: units.MBps(diskBW),
			SeekTime: 5 * units.Millisecond, CapacityB: units.TiB, NearThreshold: units.MiB,
		})
		targets = append(targets, Target{Node: node, Dev: d})
	}
	return New(r.eng, r.fab, Params{
		Name: "pvfs", Kind: "pvfs2", Targets: targets, StripeSize: 64 * units.KiB,
	})
}

func TestNFSWriteGoesThroughNetworkAndDisk(t *testing.T) {
	r := newRig(1)
	fs := r.nfs(t, 1000) // fast disk: network-bound
	var took units.Duration
	r.eng.Spawn("c", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/data")
		start := p.Now()
		f.Write(p, "cn0", 0, 100*units.MiB)
		took = p.Now() - start
		f.Close(p, "cn0")
	})
	r.eng.Run()
	// Network (100 MB/s) dominates: ≈1s + disk time + latencies.
	if took < units.Second || took > 1300*units.Millisecond {
		t.Fatalf("write took %v, want ≈1s (network-bound)", took)
	}
}

func TestNFSAggregateBoundByServerLink(t *testing.T) {
	const n = 4
	r := newRig(n)
	fs := r.nfs(t, 1000)
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("cn%d", i)
		r.eng.Spawn(node, func(p *des.Proc) {
			f := fs.Open(p, node, "/shared")
			f.Write(p, node, int64(100*units.MiB), 100*units.MiB)
		})
	}
	r.eng.Run()
	// 400 MiB through one 100 MB/s NIC ≥ 4s regardless of disk speed.
	if r.eng.Now() < 4*units.Second {
		t.Fatalf("aggregate %v, want ≥4s (server NIC bound)", r.eng.Now())
	}
}

func TestStripedFSScalesWithTargets(t *testing.T) {
	const n = 4
	run := func(targets int) units.Duration {
		r := newRig(n)
		fs := r.striped(t, targets, 1000)
		for i := 0; i < n; i++ {
			node := fmt.Sprintf("cn%d", i)
			r.eng.Spawn(node, func(p *des.Proc) {
				f := fs.Open(p, node, "/shared")
				f.Write(p, node, int64(i)*100*units.MiB, 100*units.MiB)
			})
		}
		r.eng.Run()
		return r.eng.Now()
	}
	one, four := run(1), run(4)
	speedup := float64(one) / float64(four)
	// With 4 targets each client is bounded by its own NIC (1s for
	// 100 MiB at 100 MB/s) plus per-target downlink sharing, so the ideal
	// 4x collapses to ≈2.3x — the same effect that keeps real striped
	// filesystems below linear scaling on slow client NICs.
	if speedup < 2.0 {
		t.Fatalf("striping speedup %.2f (1 target %v, 4 targets %v)", speedup, one, four)
	}
	if four > 2*units.Second {
		t.Fatalf("4-target case took %v, want < 2s (NIC-bound)", four)
	}
}

func TestReadCarriesDataBack(t *testing.T) {
	r := newRig(1)
	fs := r.nfs(t, 1000)
	var wrote, read units.Duration
	r.eng.Spawn("c", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/f")
		start := p.Now()
		f.Write(p, "cn0", 0, 50*units.MiB)
		wrote = p.Now() - start
		start = p.Now()
		f.Read(p, "cn0", 0, 50*units.MiB)
		read = p.Now() - start
	})
	r.eng.Run()
	if read < wrote/2 {
		t.Fatalf("read %v suspiciously cheap vs write %v", read, wrote)
	}
	if fs.Targets()[0].Dev.Counters().ReadBytes != 50*units.MiB {
		t.Fatal("read did not reach the device")
	}
}

func TestFileSizeTracksMaxExtent(t *testing.T) {
	r := newRig(1)
	fs := r.nfs(t, 1000)
	r.eng.Spawn("c", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/f")
		f.Write(p, "cn0", 10*units.MiB, 5*units.MiB)
		if f.Size() != 15*units.MiB {
			t.Errorf("size = %d", f.Size())
		}
		f.Write(p, "cn0", 0, units.MiB)
		if f.Size() != 15*units.MiB {
			t.Errorf("size shrank to %d", f.Size())
		}
	})
	r.eng.Run()
}

func TestStripeExtentPartition(t *testing.T) {
	r := newRig(1)
	fs := r.striped(t, 3, 100)
	f := func(off uint32, sz uint16) bool {
		offset, size := int64(off), int64(sz)+1
		var total int64
		for _, c := range fs.stripeExtent(nil, 3, offset, size) {
			if c.size <= 0 || c.target < 0 || c.target >= 3 {
				return false
			}
			total += c.size
		}
		return total >= size // coalescing may cover gaps, never undershoot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeExtentExactWhenAligned(t *testing.T) {
	r := newRig(1)
	fs := r.striped(t, 3, 100)
	chunks := fs.stripeExtent(nil, 3, 0, 3*64*units.KiB*10)
	var total int64
	for _, c := range chunks {
		total += c.size
	}
	if total != 3*64*units.KiB*10 {
		t.Fatalf("aligned extent split covers %d bytes", total)
	}
	if len(chunks) != 3 {
		t.Fatalf("want one coalesced chunk per target, got %d", len(chunks))
	}
}

func TestPeakDeviceBandwidthSumsTargets(t *testing.T) {
	r := newRig(1)
	fs := r.striped(t, 3, 70)
	if got := fs.PeakDeviceBandwidth(true).MBpsValue(); got != 210 {
		t.Fatalf("peak = %v, want 210", got)
	}
}

func TestSyncDrainsCaches(t *testing.T) {
	r := newRig(1)
	r.fab.AddEndpoint("nas")
	disk := disksim.NewDisk(r.eng, "d", disksim.SATA7200(units.TiB))
	cache := disksim.NewWriteCache(r.eng, "c", disk, disksim.DefaultCacheParams())
	fs := New(r.eng, r.fab, Params{
		Name: "nfs", Kind: "nfs",
		Targets:    []Target{{Node: "nas", Dev: cache}},
		StripeSize: 64 * units.KiB,
	})
	r.eng.Spawn("c", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/f")
		f.Write(p, "cn0", 0, 32*units.MiB)
		fs.Sync(p)
		if cache.Level() != 0 {
			t.Errorf("cache still dirty: %d", cache.Level())
		}
	})
	r.eng.Run()
	if disk.Counters().WriteBytes != 32*units.MiB {
		t.Fatalf("disk got %d bytes", disk.Counters().WriteBytes)
	}
}

func TestFileStripeCountNarrowsTargets(t *testing.T) {
	r := newRig(1)
	var targets []Target
	var disks []*disksim.Disk
	for i := 0; i < 4; i++ {
		node := fmt.Sprintf("oss%d", i)
		r.fab.AddEndpoint(node)
		d := disksim.NewDisk(r.eng, node+"-d", disksim.SATA7200(units.TiB))
		disks = append(disks, d)
		targets = append(targets, Target{Node: node, Dev: d})
	}
	fs := New(r.eng, r.fab, Params{
		Name: "lustre", Kind: "lustre", Targets: targets,
		StripeSize: units.MiB, FileStripeCount: 2,
	})
	r.eng.Spawn("c", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/one")
		f.Write(p, "cn0", 0, 8*units.MiB)
	})
	r.eng.Run()
	touched := 0
	for _, d := range disks {
		if d.Counters().WriteBytes > 0 {
			touched++
		}
	}
	if touched != 2 {
		t.Fatalf("file touched %d targets, want stripe count 2", touched)
	}
}

func TestFileStripeCountRotatesAcrossFiles(t *testing.T) {
	r := newRig(1)
	var targets []Target
	var disks []*disksim.Disk
	for i := 0; i < 3; i++ {
		node := fmt.Sprintf("oss%d", i)
		r.fab.AddEndpoint(node)
		d := disksim.NewDisk(r.eng, node+"-d", disksim.SATA7200(units.TiB))
		disks = append(disks, d)
		targets = append(targets, Target{Node: node, Dev: d})
	}
	fs := New(r.eng, r.fab, Params{
		Name: "lustre", Kind: "lustre", Targets: targets,
		StripeSize: units.MiB, FileStripeCount: 1,
	})
	r.eng.Spawn("c", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			f := fs.Open(p, "cn0", fmt.Sprintf("/f%d", i))
			f.Write(p, "cn0", 0, units.MiB)
		}
	})
	r.eng.Run()
	for i, d := range disks {
		if d.Counters().WriteBytes != units.MiB {
			t.Fatalf("disk %d got %d bytes; allocator should rotate", i, d.Counters().WriteBytes)
		}
	}
}

func TestOpenUnknownNodePanics(t *testing.T) {
	r := newRig(1)
	fs := r.nfs(t, 100)
	panicked := false
	r.eng.Spawn("c", func(p *des.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		fs.Open(p, "nonexistent", "/f")
	})
	r.eng.Run()
	if !panicked {
		t.Fatal("no panic for unknown client endpoint")
	}
}

// mapStripeExtent is the striping code stripeExtent's closed form
// replaced, kept as its oracle: a per-target map of chunks grown one
// stripe unit at a time, emitted in sorted target order.
func mapStripeExtent(unit int64, ntargets int, offset, size int64) []extentChunk {
	n := int64(ntargets)
	byTarget := make(map[int]*extentChunk)
	var order []int
	for size > 0 {
		unitIdx := offset / unit
		within := offset % unit
		take := unit - within
		if take > size {
			take = size
		}
		tgt := int(unitIdx % n)
		row := unitIdx / n
		local := row*unit + within
		if c, ok := byTarget[tgt]; ok && c.offset+c.size == local {
			c.size += take
		} else if !ok {
			byTarget[tgt] = &extentChunk{target: tgt, offset: local, size: take}
			order = append(order, tgt)
		} else {
			c.size = local + take - c.offset
		}
		offset += take
		size -= take
	}
	out := make([]extentChunk, 0, len(order))
	sort.Ints(order)
	for _, tgt := range order {
		out = append(out, *byTarget[tgt])
	}
	return out
}

// TestStripeExtentMatchesMapOracle pins the closed-form split against the
// map-and-sort code it replaced, over random stripe sizes, target counts
// and extents.
func TestStripeExtentMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := newRig(1)
	fs := r.striped(t, 1, 100)
	for i := 0; i < 20000; i++ {
		unit := int64(1) << rng.Intn(21)
		if rng.Intn(2) == 0 {
			unit = 1 + rng.Int63n(1<<20)
		}
		fs.params.StripeSize = unit
		ntargets := 1 + rng.Intn(16)
		offset := rng.Int63n(units.TiB)
		size := 1 + rng.Int63n(unit*int64(3*ntargets+2))
		want := mapStripeExtent(unit, ntargets, offset, size)
		if got := fs.stripeExtent(nil, ntargets, offset, size); !reflect.DeepEqual(got, want) {
			t.Fatalf("unit=%d targets=%d offset=%d size=%d:\n got %+v\nwant %+v",
				unit, ntargets, offset, size, got, want)
		}
	}
}
