package mpiio

import (
	"testing"
	"testing/quick"

	"iophases/internal/cluster"
	"iophases/internal/mpi"
	"iophases/internal/trace"
	"iophases/internal/units"
)

func TestContigMap(t *testing.T) {
	got := Contig{}.Map(100, 50, 10)
	if len(got) != 1 || got[0] != (Extent{Offset: 150, Size: 10}) {
		t.Fatalf("map = %+v", got)
	}
	if (Contig{}).Map(0, 0, 0) != nil {
		t.Fatal("zero size should map to nothing")
	}
}

func TestVectorMapStrided(t *testing.T) {
	// Rank 1 of 4, blocks of 10 bytes every 40 bytes.
	v := Vector{Block: 10, Stride: 40, Phase: 10}
	got := v.Map(0, 0, 25)
	want := []Extent{{10, 10}, {50, 10}, {90, 5}}
	if len(got) != len(want) {
		t.Fatalf("map = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("map[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestVectorMapCoalescesDegenerateStride(t *testing.T) {
	// Stride == Block is contiguous: one extent.
	v := Vector{Block: 10, Stride: 10}
	got := v.Map(5, 0, 100)
	if len(got) != 1 || got[0] != (Extent{Offset: 5, Size: 100}) {
		t.Fatalf("map = %+v", got)
	}
}

func TestVectorMapTotalBytesQuick(t *testing.T) {
	f := func(blockRaw, strideRaw uint16, off uint16, sizeRaw uint16) bool {
		block := int64(blockRaw%1000) + 1
		stride := block + int64(strideRaw%1000)
		size := int64(sizeRaw) + 1
		v := Vector{Block: block, Stride: stride}
		var total int64
		prevEnd := int64(-1)
		for _, e := range v.Map(0, int64(off), size) {
			if e.Size <= 0 || e.Offset < prevEnd {
				return false // extents must be positive and ordered
			}
			prevEnd = e.Offset + e.Size
			total += e.Size
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeExtents(t *testing.T) {
	in := []Extent{{30, 10}, {0, 10}, {10, 10}, {25, 10}, {100, 5}}
	got := mergeExtents(in)
	want := []Extent{{0, 20}, {25, 15}, {100, 5}}
	if len(got) != len(want) {
		t.Fatalf("merged = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeExtentsInterleavedRanksBecomeContiguous(t *testing.T) {
	// 4 ranks × strided pieces covering [0, 160) densely.
	var all []Extent
	for r := int64(0); r < 4; r++ {
		v := Vector{Block: 10, Stride: 40, Phase: r * 10}
		all = append(all, v.Map(0, 0, 40)...)
	}
	got := mergeExtents(all)
	if len(got) != 1 || got[0] != (Extent{0, 160}) {
		t.Fatalf("dense union should be one extent, got %+v", got)
	}
}

func TestSplitExtentsPreservesBytes(t *testing.T) {
	f := func(sizes []uint16, partsRaw uint8) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		parts := int(partsRaw%8) + 1
		var extents []Extent
		off := int64(0)
		for _, s := range sizes {
			size := int64(s) + 1
			extents = append(extents, Extent{off, size})
			off += size + 10
		}
		total := totalSize(extents)
		doms := splitExtents(extents, parts)
		if len(doms) > parts {
			return false
		}
		var sum int64
		for _, d := range doms {
			sum += totalSize(d)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rig builds a config-A cluster with a traced 4-rank world.
type rig struct {
	c   *cluster.Cluster
	w   *mpi.World
	sys *System
}

func newRig(np int) *rig {
	c := cluster.Build(cluster.ConfigA())
	nodes := make([]string, np)
	for i := range nodes {
		nodes[i] = c.NodeOfRank(i, np)
	}
	w := mpi.NewWorld(c.Eng, c.Fabric, nodes)
	sys := NewSystem(c.FS, w)
	sys.Tracer = trace.NewSet("test", c.Spec.Name, np)
	return &rig{c: c, w: w, sys: sys}
}

func TestIndependentWriteReachesStorage(t *testing.T) {
	r := newRig(1)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/data", Shared)
		f.WriteAt(rk, 0, 8*units.MiB)
		f.Sync(rk)
		f.Close(rk)
	})
	ctr := r.c.IODevice(0).Counters()
	if ctr.WriteBytes != 8*units.MiB {
		t.Fatalf("device saw %d bytes", ctr.WriteBytes)
	}
	evs := r.sys.Tracer.DataEvents(0)
	if len(evs) != 1 || evs[0].Op != trace.OpWriteAt || evs[0].Size != 8*units.MiB {
		t.Fatalf("trace %+v", evs)
	}
}

func TestTraceOffsetsInEtypeUnits(t *testing.T) {
	// With etype 40 (BT-IO), offsets in the trace are etype counts —
	// Figure 2 shows offset 265302 with request size 10612080 = 265302*40.
	r := newRig(1)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/data", Shared)
		f.SetView(rk, 0, 40, Contig{})
		f.WriteAt(rk, 265302, 265302*40)
		f.Close(rk)
	})
	evs := r.sys.Tracer.DataEvents(0)
	if evs[0].Offset != 265302 || evs[0].Size != 265302*40 {
		t.Fatalf("event %+v", evs[0])
	}
	meta := r.sys.Tracer.FileMetaByID(0)
	if meta == nil || meta.ViewEtype != 40 || !meta.HasView {
		t.Fatalf("meta %+v", meta)
	}
}

func TestTicksAdvancePerOperation(t *testing.T) {
	r := newRig(2)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/data", Shared)                 // tick 1
		f.WriteAt(rk, int64(rk.ID())*units.MiB, units.MiB)   // tick 2
		f.WriteAt(rk, int64(2+rk.ID())*units.MiB, units.MiB) // tick 3
		f.Close(rk)                                          // tick 4
	})
	for p := 0; p < 2; p++ {
		evs := r.sys.Tracer.Events[p]
		for i, ev := range evs {
			if ev.Tick != int64(i+1) {
				t.Fatalf("rank %d event %d tick %d", p, i, ev.Tick)
			}
		}
	}
}

func TestUniqueFilesArePerProcess(t *testing.T) {
	r := newRig(4)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/out", Unique)
		f.WriteAt(rk, 0, units.MiB) // same offset, different files
		f.Close(rk)
	})
	// All four wrote offset 0 of private files: total 4 MiB on storage.
	if ctr := r.c.IODevice(0).Counters(); ctr.WriteBytes != 4*units.MiB {
		t.Fatalf("device saw %d", ctr.WriteBytes)
	}
	if m := r.sys.Tracer.FileMetaByID(0); m.AccessType != Unique {
		t.Fatalf("meta %+v", m)
	}
}

func TestIndividualPointerAdvances(t *testing.T) {
	r := newRig(1)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/seq", Shared)
		f.Seek(rk, 100)
		f.Write(rk, 50)
		if f.Tell(rk) != 150 {
			t.Errorf("pointer %d", f.Tell(rk))
		}
		f.Read(rk, 10)
		if f.Tell(rk) != 160 {
			t.Errorf("pointer %d", f.Tell(rk))
		}
		f.Close(rk)
	})
	evs := r.sys.Tracer.DataEvents(0)
	if evs[0].Offset != 100 || evs[1].Offset != 150 {
		t.Fatalf("pointer offsets %+v", evs)
	}
	if m := r.sys.Tracer.FileMetaByID(0); m.PointerSet != "individual" {
		t.Fatalf("pointer meta %q", m.PointerSet)
	}
}

func TestCollectiveWriteMovesAllData(t *testing.T) {
	r := newRig(4)
	const rs = 4 * units.MiB
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/coll", Shared)
		f.SetView(rk, 0, 1, Vector{Block: rs / 4, Stride: rs, Phase: int64(rk.ID()) * (rs / 4)})
		f.WriteAtAll(rk, 0, rs)
		f.Sync(rk)
		f.Close(rk)
	})
	if ctr := r.c.IODevice(0).Counters(); ctr.WriteBytes != 4*rs {
		t.Fatalf("device saw %d, want %d", ctr.WriteBytes, 4*rs)
	}
	// All ranks report the same collective duration.
	d0 := r.sys.Tracer.DataEvents(0)[0].Duration
	for p := 1; p < 4; p++ {
		if d := r.sys.Tracer.DataEvents(p)[0].Duration; d != d0 {
			t.Fatalf("rank %d duration %v != rank0 %v", p, d, d0)
		}
	}
	if m := r.sys.Tracer.FileMetaByID(0); !m.Collective {
		t.Fatal("collective flag not recorded")
	}
}

func TestCollectiveBeatsIndependentOnStridedPattern(t *testing.T) {
	// The raison d'être of two-phase I/O: interleaved small blocks.
	const np = 4
	const rs = 8 * units.MiB
	run := func(collective bool) units.Duration {
		r := newRig(np)
		took := r.w.Run(func(rk *mpi.Rank) {
			f := r.sys.Open(rk, "/strided", Shared)
			// 64 KiB pieces interleaved across ranks.
			f.SetView(rk, 0, 1, Vector{
				Block:  64 * units.KiB,
				Stride: np * 64 * units.KiB,
				Phase:  int64(rk.ID()) * 64 * units.KiB,
			})
			if collective {
				f.WriteAtAll(rk, 0, rs)
			} else {
				f.WriteAt(rk, 0, rs)
			}
			f.Sync(rk)
			f.Close(rk)
		})
		return took
	}
	ind, coll := run(false), run(true)
	if coll >= ind {
		t.Fatalf("collective %v should beat independent %v on strided data", coll, ind)
	}
}

func TestCollectiveReadRoundTrip(t *testing.T) {
	r := newRig(4)
	const rs = 2 * units.MiB
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/rw", Shared)
		f.WriteAtAll(rk, int64(rk.ID())*rs, rs)
		f.ReadAtAll(rk, int64(rk.ID())*rs, rs)
		f.Close(rk)
	})
	ctr := r.c.IODevice(0).Counters()
	if ctr.WriteBytes != 4*rs {
		t.Fatalf("writes %d", ctr.WriteBytes)
	}
	// The read-back may be served from the server's write-back cache
	// (close-in-time re-read), so assert on the traced call surface.
	for p := 0; p < 4; p++ {
		evs := r.sys.Tracer.DataEvents(p)
		if len(evs) != 2 || !evs[1].Op.IsRead() || evs[1].Size != rs {
			t.Fatalf("rank %d events %+v", p, evs)
		}
		if evs[1].Duration <= 0 {
			t.Fatalf("rank %d read cost nothing", p)
		}
	}
}

func TestEtypeSizeValidation(t *testing.T) {
	r := newRig(1)
	panicked := false
	r.w.Run(func(rk *mpi.Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		f := r.sys.Open(rk, "/x", Shared)
		f.SetView(rk, 0, 40, Contig{})
		f.WriteAt(rk, 0, 41) // not a multiple of etype
	})
	if !panicked {
		t.Fatal("size/etype mismatch accepted")
	}
}

func TestNestedMapTwoLevels(t *testing.T) {
	// 2 blocks of 10 bytes per group, 50 apart; groups 200 apart.
	n := Nested{Block: 10, Count: 2, InnerStride: 50, OuterStride: 200, Phase: 5}
	got := n.Map(0, 0, 45)
	want := []Extent{{5, 10}, {55, 10}, {205, 10}, {255, 10}, {405, 5}}
	if len(got) != len(want) {
		t.Fatalf("map %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("map[%d] = %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestNestedMapTotalBytesQuick(t *testing.T) {
	f := func(blockRaw, countRaw, off uint8, sizeRaw uint16) bool {
		block := int64(blockRaw%50) + 1
		count := int64(countRaw%5) + 1
		inner := block + int64(blockRaw%17)
		outer := inner*(count-1) + block + int64(countRaw%31)
		size := int64(sizeRaw) + 1
		n := Nested{Block: block, Count: count, InnerStride: inner, OuterStride: outer}
		var total int64
		prevEnd := int64(-1 << 62)
		for _, e := range n.Map(0, int64(off), size) {
			if e.Size <= 0 || e.Offset < prevEnd {
				return false
			}
			prevEnd = e.Offset + e.Size
			total += e.Size
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDegeneratesToVector(t *testing.T) {
	// Count=1 nested equals a plain vector with the outer stride.
	n := Nested{Block: 10, Count: 1, InnerStride: 10, OuterStride: 40, Phase: 0}
	v := Vector{Block: 10, Stride: 40}
	for _, size := range []int64{5, 10, 35, 100} {
		ne, ve := n.Map(7, 3, size), v.Map(7, 3, size)
		if len(ne) != len(ve) {
			t.Fatalf("size %d: %v vs %v", size, ne, ve)
		}
		for i := range ne {
			if ne[i] != ve[i] {
				t.Fatalf("size %d [%d]: %v vs %v", size, i, ne[i], ve[i])
			}
		}
	}
}

func TestNestedViewThroughIndependentIO(t *testing.T) {
	r := newRig(1)
	r.w.Run(func(rk *mpi.Rank) {
		f := r.sys.Open(rk, "/nested", Shared)
		f.SetHint("romio_ds_write", "disable")
		f.SetView(rk, 0, 1, Nested{
			Block: 8 * units.KiB, Count: 4,
			InnerStride: 32 * units.KiB, OuterStride: 256 * units.KiB,
		})
		f.WriteAt(rk, 0, 128*units.KiB) // 16 blocks over 4 groups
		f.Sync(rk)
		f.Close(rk)
	})
	if ctr := r.c.IODevice(0).Counters(); ctr.WriteBytes != 128*units.KiB {
		t.Fatalf("device %d", ctr.WriteBytes)
	}
	m := r.sys.Tracer.FileMetaByID(0)
	if m.ViewDesc == "" || m.ViewDesc[:6] != "nested" {
		t.Fatalf("desc %q", m.ViewDesc)
	}
}
