// Package hdf5 implements a simplified parallel HDF5-like library on top
// of the simulated MPI-IO layer — the substrate for the ROMS-style
// application the paper names as future work ("we are analyzing upwelling
// of ROMs framework that use HDF5 parallel to writing operations").
//
// The model captures what matters to I/O-phase analysis:
//
//   - a file is a superblock plus object headers (metadata writes through
//     rank 0) followed by dataset data;
//   - datasets are up-to-3-dimensional arrays of fixed-size elements with
//     contiguous or chunked layout (chunk allocation costs a metadata
//     operation per new chunk — the B-tree insertion);
//   - ranks write hyperslabs; a slab must decompose into equal contiguous
//     runs at a constant stride (the practical row/plane decompositions),
//     which maps to one strided MPI-IO view access — exactly how HDF5
//     drives MPI-IO underneath H5Dwrite.
//
// Unsupported HDF5 features (compression, variable-length types, groups
// beyond a flat namespace) are orthogonal to access-pattern extraction.
package hdf5

import (
	"fmt"

	"iophases/internal/mpi"
	"iophases/internal/mpiio"
)

// Layout selects a dataset's storage layout.
type Layout int

// Dataset layouts.
const (
	Contiguous Layout = iota
	Chunked
)

const (
	superblockSize   = 2048
	objectHeaderSize = 1024
)

// File is a parallel HDF5-like file.
type File struct {
	sys      *mpiio.System
	f        *mpiio.File
	name     string
	allocEnd int64 // next free byte for dataset allocation
	datasets map[string]*Dataset
}

// Create opens a new file collectively; rank 0 writes the superblock.
func Create(sys *mpiio.System, r *mpi.Rank, name string) *File {
	f := sys.Open(r, name, mpiio.Shared)
	if r.ID() == 0 {
		f.WriteAt(r, 0, superblockSize)
	}
	r.Sync()
	return &File{
		sys:      sys,
		f:        f,
		name:     name,
		allocEnd: superblockSize,
		datasets: make(map[string]*Dataset),
	}
}

// Close closes the file collectively.
func (h *File) Close(r *mpi.Rank) { h.f.Close(r) }

// Dims are dataset dimensions, slowest-varying first; unused trailing
// dimensions are 1.
type Dims [3]int64

// Elems reports the total element count.
func (d Dims) Elems() int64 {
	n := int64(1)
	for _, v := range d {
		if v > 0 {
			n *= v
		}
	}
	return n
}

// Dataset is a named n-dimensional array in a file.
type Dataset struct {
	file     *File
	name     string
	dims     Dims
	elemSize int64
	layout   Layout
	chunkB   int64          // chunk size in bytes (Chunked layout)
	start    int64          // file offset of the data
	alloc    map[int64]bool // chunks already allocated
}

// CreateDataset defines a dataset collectively; rank 0 writes the object
// header, and space is allocated at the end of the file. chunkBytes is
// only used for the Chunked layout.
func (h *File) CreateDataset(r *mpi.Rank, name string, dims Dims, elemSize int64, layout Layout, chunkBytes int64) *Dataset {
	if elemSize <= 0 || dims.Elems() <= 0 {
		panic(fmt.Sprintf("hdf5: dataset %q: dims %v elem %d", name, dims, elemSize))
	}
	if layout == Chunked && chunkBytes <= 0 {
		panic(fmt.Sprintf("hdf5: dataset %q: chunked without chunk size", name))
	}
	ds, ok := h.datasets[name]
	if !ok {
		ds = &Dataset{
			file:     h,
			name:     name,
			dims:     dims,
			elemSize: elemSize,
			layout:   layout,
			chunkB:   chunkBytes,
			start:    h.allocEnd + objectHeaderSize,
			alloc:    make(map[int64]bool),
		}
		h.allocEnd = ds.start + dims.Elems()*elemSize
		h.datasets[name] = ds
	}
	if r.ID() == 0 {
		h.f.WriteAt(r, ds.start-objectHeaderSize, objectHeaderSize)
	}
	r.Sync()
	return ds
}

// Dataset returns a previously created dataset.
func (h *File) Dataset(name string) *Dataset {
	ds, ok := h.datasets[name]
	if !ok {
		panic(fmt.Sprintf("hdf5: unknown dataset %q in %s", name, h.name))
	}
	return ds
}

// Slab selects a hyperslab: Start element and Count elements per
// dimension.
type Slab struct {
	Start Dims
	Count Dims
}

// pattern reduces a slab to (firstByte, runBytes, strideBytes, runCount)
// relative to the dataset start, requiring the equal-runs-constant-stride
// shape one strided MPI datatype can express.
func (ds *Dataset) pattern(s Slab) (first, run, stride, count int64) {
	d := ds.dims
	for i := range d {
		if d[i] <= 0 {
			d[i] = 1
		}
		if s.Count[i] <= 0 {
			s.Count[i] = 1
		}
		if s.Start[i]+s.Count[i] > d[i] {
			panic(fmt.Sprintf("hdf5: slab %v out of bounds of %v in %q", s, ds.dims, ds.name))
		}
	}
	rowB := d[2] * ds.elemSize // one x-row
	planeB := d[1] * rowB      // one z-plane
	first = s.Start[0]*planeB + s.Start[1]*rowB + s.Start[2]*ds.elemSize
	switch {
	case s.Count[2] == d[2] && s.Count[1] == d[1]:
		// Whole planes: one contiguous run.
		return first, s.Count[0] * planeB, s.Count[0] * planeB, 1
	case s.Count[2] == d[2]:
		// Full rows, partial planes: one run per plane.
		return first, s.Count[1] * rowB, planeB, s.Count[0]
	case s.Count[1] == 1:
		// Partial rows within single-y slices: one run per plane.
		if s.Count[0] == 1 {
			return first, s.Count[2] * ds.elemSize, rowB, 1
		}
		return first, s.Count[2] * ds.elemSize, planeB, s.Count[0]
	default:
		panic(fmt.Sprintf(
			"hdf5: slab %v of %q needs a nested datatype; decompose along one axis",
			s, ds.name))
	}
}

// WriteSlab writes the rank's hyperslab through a strided MPI-IO view (one
// traced MPI call, like H5Dwrite over MPI-IO); collective selects
// H5FD_MPIO collective transfer.
func (ds *Dataset) WriteSlab(r *mpi.Rank, s Slab, collective bool) {
	first, run, stride, count := ds.pattern(s)
	if ds.layout == Chunked {
		// Chunk allocation: a metadata operation per chunk first
		// touched by this rank (B-tree insertion). The single-threaded
		// engine makes the map race-free.
		lo := (first) / ds.chunkB
		hi := (first + stride*(count-1) + run - 1) / ds.chunkB
		for c := lo; c <= hi; c++ {
			if !ds.alloc[c] {
				ds.alloc[c] = true
				ds.file.sys.FS().ChargeMetaOp(r.Proc(), r.Node())
			}
		}
	}
	bytes := run * count
	ds.file.f.SetView(r, ds.start, ds.elemSize, mpiio.Vector{
		Block:  run,
		Stride: stride,
		Phase:  first,
	})
	offEtypes := int64(0) // the view already points at the slab
	if collective {
		ds.file.f.WriteAtAll(r, offEtypes, bytes)
	} else {
		ds.file.f.WriteAt(r, offEtypes, bytes)
	}
}

// RowDecompose splits dimension 1 (y) of a dataset evenly over np ranks —
// the standard 1-D horizontal decomposition of ocean/atmosphere models.
// Remainder rows go to the last rank.
func RowDecompose(dims Dims, rank, np int) Slab {
	rows := dims[1]
	per := rows / int64(np)
	start := int64(rank) * per
	count := per
	if rank == np-1 {
		count = rows - start
	}
	return Slab{
		Start: Dims{0, start, 0},
		Count: Dims{dims[0], count, dims[2]},
	}
}
