package hdf5

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// rig runs a program on a small traced world over config A.
func runProgram(t *testing.T, np int, prog func(sys *mpiio.System, r *mpi.Rank)) (*trace.Set, *cluster.Cluster) {
	t.Helper()
	c := cluster.Build(cluster.ConfigA())
	nodes := make([]string, np)
	for i := range nodes {
		nodes[i] = c.NodeOfRank(i, np)
	}
	w := mpi.NewWorld(c.Eng, c.Fabric, nodes)
	sys := mpiio.NewSystem(c.FS, w)
	sys.Tracer = trace.NewSet("hdf5test", "configA", np)
	w.Run(func(r *mpi.Rank) { prog(sys, r) })
	return sys.Tracer, c
}

func TestDimsElems(t *testing.T) {
	if (Dims{4, 8, 16}).Elems() != 512 {
		t.Fatal("elems")
	}
	if (Dims{5, 0, 0}).Elems() != 5 {
		t.Fatal("unused dims must count as 1")
	}
}

func TestPatternShapes(t *testing.T) {
	ds := &Dataset{dims: Dims{4, 8, 16}, elemSize: 8, name: "d"}
	// Whole planes: contiguous.
	first, run, _, count := ds.pattern(Slab{Count: Dims{2, 8, 16}})
	if first != 0 || run != 2*8*16*8 || count != 1 {
		t.Fatalf("planes: %d %d %d", first, run, count)
	}
	// Full rows, partial planes: one run per plane.
	first, run, stride, count := ds.pattern(Slab{Start: Dims{0, 2, 0}, Count: Dims{4, 3, 16}})
	if first != 2*16*8 || run != 3*16*8 || stride != 8*16*8 || count != 4 {
		t.Fatalf("rows: %d %d %d %d", first, run, stride, count)
	}
	// Partial row in one y-slice per plane.
	_, run, stride, count = ds.pattern(Slab{Start: Dims{0, 1, 4}, Count: Dims{4, 1, 8}})
	if run != 8*8 || stride != 8*16*8 || count != 4 {
		t.Fatalf("partial: %d %d %d", run, stride, count)
	}
}

func TestPatternRejectsNestedShapes(t *testing.T) {
	ds := &Dataset{dims: Dims{4, 8, 16}, elemSize: 8, name: "d"}
	defer func() {
		if recover() == nil {
			t.Fatal("nested slab accepted")
		}
	}()
	ds.pattern(Slab{Count: Dims{2, 3, 8}}) // partial rows AND partial planes
}

func TestPatternRejectsOutOfBounds(t *testing.T) {
	ds := &Dataset{dims: Dims{4, 8, 16}, elemSize: 8, name: "d"}
	defer func() {
		if recover() == nil {
			t.Fatal("oob slab accepted")
		}
	}()
	ds.pattern(Slab{Start: Dims{0, 6, 0}, Count: Dims{4, 3, 16}})
}

func TestWriteSlabMovesData(t *testing.T) {
	const np = 4
	dims := Dims{1, 64, 64}
	set, c := runProgram(t, np, func(sys *mpiio.System, r *mpi.Rank) {
		h := Create(sys, r, "/test.h5")
		ds := h.CreateDataset(r, "field", dims, 8, Contiguous, 0)
		ds.WriteSlab(r, RowDecompose(dims, r.ID(), np), true)
		h.Close(r)
	})
	wantData := dims.Elems() * 8
	w, _ := set.TotalBytes()
	meta := int64(superblockSize + objectHeaderSize) // rank 0 metadata
	if w != wantData+meta {
		t.Fatalf("traced %d bytes, want %d data + %d meta", w, wantData, meta)
	}
	if got := c.IODevice(0).Counters().WriteBytes; got < wantData {
		t.Fatalf("device got %d", got)
	}
}

func TestRowDecomposeCoversGrid(t *testing.T) {
	dims := Dims{3, 100, 7}
	var rows int64
	for rank := 0; rank < 8; rank++ {
		s := RowDecompose(dims, rank, 8)
		rows += s.Count[1]
		if s.Count[0] != 3 || s.Count[2] != 7 {
			t.Fatalf("slab %v", s)
		}
	}
	if rows != 100 {
		t.Fatalf("rows covered %d", rows)
	}
}

func TestSlabViewIsStrided(t *testing.T) {
	// A partial-plane write must record a strided (vector) view.
	set, _ := runProgram(t, 2, func(sys *mpiio.System, r *mpi.Rank) {
		h := Create(sys, r, "/v.h5")
		dims := Dims{4, 8, 16}
		ds := h.CreateDataset(r, "d", dims, 8, Contiguous, 0)
		ds.WriteSlab(r, RowDecompose(dims, r.ID(), 2), false)
		h.Close(r)
	})
	m := set.FileMetaByID(0)
	if m == nil || !m.HasView {
		t.Fatal("no view recorded")
	}
	v := m.ViewOf(1)
	if v.Block <= 0 || v.Stride <= v.Block {
		t.Fatalf("view not strided: %+v", v)
	}
}

func TestChunkedLayoutChargesAllocation(t *testing.T) {
	// Compare the write call itself (traced duration): the chunked
	// layout pays one metadata operation per newly allocated chunk.
	run := func(layout Layout, chunk int64) units.Duration {
		c := cluster.Build(cluster.ConfigA())
		w := mpi.NewWorld(c.Eng, c.Fabric, []string{c.NodeOfRank(0, 1)})
		sys := mpiio.NewSystem(c.FS, w)
		var took units.Duration
		w.Run(func(r *mpi.Rank) {
			h := Create(sys, r, "/c.h5")
			dims := Dims{1, 64, 64}
			ds := h.CreateDataset(r, "d", dims, 8, layout, chunk)
			start := r.Now()
			ds.WriteSlab(r, Slab{Count: dims}, false)
			took = r.Now() - start
			h.Close(r)
		})
		return took
	}
	contig := run(Contiguous, 0)
	chunked := run(Chunked, 4*units.KiB) // 8 chunks of 4 KiB for 32 KiB data
	if chunked <= contig {
		t.Fatalf("chunk allocation free: contiguous %v vs chunked %v", contig, chunked)
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	runProgram(t, 1, func(sys *mpiio.System, r *mpi.Rank) {
		h := Create(sys, r, "/x.h5")
		defer func() {
			if recover() == nil {
				t.Error("unknown dataset accessed")
			}
		}()
		h.Dataset("ghost")
	})
}
