package mpiio

import (
	"fmt"

	"iophases/internal/faults"
	"iophases/internal/fsim"
	"iophases/internal/mpi"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// System binds the MPI-IO library to one job and one global filesystem.
// When Tracer is non-nil every MPI-IO call is recorded in PAS2P format —
// the simulator's equivalent of the paper's interposition library.
type System struct {
	fs     *fsim.FS
	world  *mpi.World
	Tracer *trace.Set
	// Account, when non-nil, is attached to every fsim handle this system
	// opens, attributing the job's data traffic to one application on a
	// shared filesystem (co-execution). Set it before any Open.
	Account *fsim.Account

	nextID int
	files  map[string]*File
	aggSet []int // aggregator ranks, one per distinct node, in rank order
	appT0  units.Duration
	flt    *faults.Injector // nil on a healthy cluster; enables fsAccess retries
}

// NewSystem creates the MPI-IO layer for a world over fs.
func NewSystem(fs *fsim.FS, world *mpi.World) *System {
	s := &System{fs: fs, world: world, files: make(map[string]*File),
		flt: faults.For(world.Engine())}
	seen := make(map[string]bool)
	for r := 0; r < world.Size(); r++ {
		node := world.NodeOf(r)
		if !seen[node] {
			seen[node] = true
			s.aggSet = append(s.aggSet, r)
		}
	}
	return s
}

// FS exposes the underlying filesystem.
func (s *System) FS() *fsim.FS { return s.fs }

// MarkStart records the application start time so traced event timestamps
// are app-relative (call before the first MPI-IO operation).
func (s *System) MarkStart(r *mpi.Rank) { s.appT0 = r.Now() }

// record emits a trace event if tracing is on.
func (s *System) record(ev trace.Event) {
	if s.Tracer != nil {
		ev.Time -= s.appT0
		s.Tracer.Record(ev)
	}
}

// AccessType values for Open.
const (
	Shared = "shared" // one file for all processes
	Unique = "unique" // one file per process (IOR -F)
)

// File is an MPI-IO file handle shared by all ranks (the per-rank state —
// views, pointers, underlying handle — is indexed by rank inside).
type File struct {
	sys        *System
	id         int
	name       string
	accessType string
	views      []View
	pointers   []int64 // individual file pointers, in etype units
	handles    []*fsim.File
	hints      hints
	meta       trace.FileMeta
	coll       collState
	opened     int
}

// Open opens (creating if needed) a file collectively; every rank must
// call it. accessType selects one shared file or file-per-process.
func (s *System) Open(r *mpi.Rank, name, accessType string) *File {
	if accessType != Shared && accessType != Unique {
		panic(fmt.Sprintf("mpiio: access type %q", accessType))
	}
	start := r.Now()
	tick := r.NextTick()
	f, ok := s.files[name]
	if !ok {
		np := s.world.Size()
		f = &File{
			sys:        s,
			id:         s.nextID,
			name:       name,
			accessType: accessType,
			views:      make([]View, np),
			pointers:   make([]int64, np),
			handles:    make([]*fsim.File, np),
			hints:      defaultHints(),
			meta: trace.FileMeta{
				ID:         s.nextID,
				Name:       name,
				AccessType: accessType,
				PointerSet: "explicit",
				Blocking:   true,
			},
		}
		for i := range f.views {
			f.views[i] = DefaultView()
		}
		s.nextID++
		s.files[name] = f
	}
	phys := name
	if accessType == Unique {
		phys = fmt.Sprintf("%s.%d", name, r.ID())
	}
	f.handles[r.ID()] = s.fs.Open(r.Proc(), r.Node(), phys)
	f.handles[r.ID()].SetAccount(s.Account)
	f.opened++
	r.Sync()
	s.record(trace.Event{
		Rank: r.ID(), File: f.id, Op: trace.OpOpen, Tick: tick,
		Time: start, Duration: r.Now() - start,
	})
	s.syncMeta(f)
	return f
}

// syncMeta publishes current file metadata to the tracer.
func (s *System) syncMeta(f *File) {
	if s.Tracer != nil {
		s.Tracer.AddFile(f.meta)
	}
}

// ID reports the file id (idF).
func (f *File) ID() int { return f.id }

// Name reports the logical file name.
func (f *File) Name() string { return f.name }

// SetView installs the rank's file view (MPI_File_set_view): disp in
// bytes, etype extent in bytes, and the filetype tiling.
func (f *File) SetView(r *mpi.Rank, disp, etype int64, ft Filetype) {
	if etype <= 0 {
		panic("mpiio: etype must be positive")
	}
	start := r.Now()
	tick := r.NextTick()
	f.views[r.ID()] = View{Disp: disp, Etype: etype, Filetype: ft}
	f.pointers[r.ID()] = 0
	f.meta.HasView = true
	f.meta.ViewDisp = disp
	f.meta.ViewEtype = etype
	f.meta.ViewDesc = ft.Describe()
	vi := trace.ViewInfo{Rank: r.ID(), Disp: disp, Etype: etype}
	if v, ok := ft.(Vector); ok {
		vi.Block, vi.Stride, vi.Phase = v.Block, v.Stride, v.Phase
	}
	replaced := false
	for i := range f.meta.Views {
		if f.meta.Views[i].Rank == r.ID() {
			f.meta.Views[i] = vi
			replaced = true
			break
		}
	}
	if !replaced {
		f.meta.Views = append(f.meta.Views, vi)
	}
	f.sys.record(trace.Event{
		Rank: r.ID(), File: f.id, Op: trace.OpSetView, Tick: tick,
		Time: start, Duration: r.Now() - start,
	})
	f.sys.syncMeta(f)
}

// Seek positions the individual file pointer (etype units). Local: no tick.
func (f *File) Seek(r *mpi.Rank, offEtypes int64) {
	f.pointers[r.ID()] = offEtypes
	if f.meta.PointerSet == "explicit" {
		f.meta.PointerSet = "individual"
		f.sys.syncMeta(f)
	}
}

// Tell reports the individual file pointer (etype units).
func (f *File) Tell(r *mpi.Rank) int64 { return f.pointers[r.ID()] }

// checkSize validates a transfer size against the view's etype.
func (f *File) checkSize(r *mpi.Rank, size int64) {
	if size < 0 {
		panic("mpiio: negative size")
	}
	if et := f.views[r.ID()].Etype; size%et != 0 {
		panic(fmt.Sprintf("mpiio: size %d not a multiple of etype %d", size, et))
	}
}

// independent performs a blocking independent data operation: map the view
// range and either issue one filesystem request per physical extent or,
// when the hints allow and the extents are dense, data-sieve the covering
// span (see sieve.go) — ROMIO's two strategies.
func (f *File) independent(r *mpi.Rank, op trace.Op, offEtypes, size int64) {
	f.checkSize(r, size)
	start := r.Now()
	tick := r.NextTick()
	h := f.handles[r.ID()]
	extents := f.views[r.ID()].MapBytes(offEtypes, size)
	sieve := (op.IsWrite() && f.hints.dsWrite) || (op.IsRead() && f.hints.dsRead)
	if lo, hi, ok := sievable(extents, size); sieve && ok {
		f.sievedAccess(r, op, lo, hi)
	} else {
		for _, e := range extents {
			f.sys.fsAccess(r.Proc(), h, r.Node(), op.IsWrite(), e.Offset, e.Size)
		}
	}
	f.sys.record(trace.Event{
		Rank: r.ID(), File: f.id, Op: op, Offset: offEtypes, Tick: tick,
		Size: size, Time: start, Duration: r.Now() - start,
	})
}

// WriteAt writes size bytes at an explicit view offset (etype units).
func (f *File) WriteAt(r *mpi.Rank, offEtypes, size int64) {
	f.independent(r, trace.OpWriteAt, offEtypes, size)
}

// ReadAt reads size bytes at an explicit view offset (etype units).
func (f *File) ReadAt(r *mpi.Rank, offEtypes, size int64) {
	f.independent(r, trace.OpReadAt, offEtypes, size)
}

// Write writes size bytes at the individual file pointer and advances it.
func (f *File) Write(r *mpi.Rank, size int64) {
	off := f.pointers[r.ID()]
	f.independent(r, trace.OpWrite, off, size)
	f.pointers[r.ID()] += size / f.views[r.ID()].Etype
}

// Read reads size bytes at the individual file pointer and advances it.
func (f *File) Read(r *mpi.Rank, size int64) {
	off := f.pointers[r.ID()]
	f.independent(r, trace.OpRead, off, size)
	f.pointers[r.ID()] += size / f.views[r.ID()].Etype
}

// WriteAtAll is the collective write at an explicit view offset.
func (f *File) WriteAtAll(r *mpi.Rank, offEtypes, size int64) {
	f.collective(r, trace.OpWriteAtAll, offEtypes, size)
}

// ReadAtAll is the collective read at an explicit view offset.
func (f *File) ReadAtAll(r *mpi.Rank, offEtypes, size int64) {
	f.collective(r, trace.OpReadAtAll, offEtypes, size)
}

// Sync drains server-side caches to the devices (MPI_File_sync);
// collective.
func (f *File) Sync(r *mpi.Rank) {
	r.Sync()
	if r.ID() == 0 {
		f.sys.fs.Sync(r.Proc())
	}
	r.Sync()
}

// Close closes the file collectively.
func (f *File) Close(r *mpi.Rank) {
	start := r.Now()
	tick := r.NextTick()
	f.handles[r.ID()].Close(r.Proc(), r.Node())
	f.handles[r.ID()] = nil
	r.Sync()
	f.sys.record(trace.Event{
		Rank: r.ID(), File: f.id, Op: trace.OpClose, Tick: tick,
		Time: start, Duration: r.Now() - start,
	})
}

// sharedHandle returns an underlying handle for aggregator access to a
// shared file.
func (f *File) sharedHandle() *fsim.File {
	for _, h := range f.handles {
		if h != nil {
			return h
		}
	}
	panic("mpiio: collective on closed file")
}
