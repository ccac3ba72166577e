// Package trace defines the MPI-IO event records produced by the
// interposition tracer, in the format of Figure 2 of the paper: one trace
// file per rank with columns
//
//	IdP IdF MPI-Operation Offset tick RequestSize time duration
//
// plus the per-file metadata the tracer gathers (pointer kind, collective,
// blocking, access type, file view). Traces are the only input the phase
// analyzer needs, which is exactly the paper's point: characterize once,
// analyze anywhere.
package trace

import "iophases/internal/units"

// Op names an MPI-IO operation, using the MPI-2 routine names.
type Op string

// MPI-IO operations the tracer interposes.
const (
	OpOpen       Op = "MPI_File_open"
	OpClose      Op = "MPI_File_close"
	OpSetView    Op = "MPI_File_set_view"
	OpWriteAt    Op = "MPI_File_write_at"
	OpWriteAtAll Op = "MPI_File_write_at_all"
	OpReadAt     Op = "MPI_File_read_at"
	OpReadAtAll  Op = "MPI_File_read_at_all"
	OpWrite      Op = "MPI_File_write"
	OpWriteAll   Op = "MPI_File_write_all"
	OpRead       Op = "MPI_File_read"
	OpReadAll    Op = "MPI_File_read_all"
	OpIWriteAt   Op = "MPI_File_iwrite_at"
	OpIReadAt    Op = "MPI_File_iread_at"
)

// IsWrite reports whether the operation transfers data to storage.
func (o Op) IsWrite() bool {
	switch o {
	case OpWriteAt, OpWriteAtAll, OpWrite, OpWriteAll, OpIWriteAt:
		return true
	}
	return false
}

// IsRead reports whether the operation transfers data from storage.
func (o Op) IsRead() bool {
	switch o {
	case OpReadAt, OpReadAtAll, OpRead, OpReadAll, OpIReadAt:
		return true
	}
	return false
}

// IsNonblocking reports whether the operation is a nonblocking variant.
func (o Op) IsNonblocking() bool { return o == OpIWriteAt || o == OpIReadAt }

// IsData reports whether the operation moves file data (vs metadata).
func (o Op) IsData() bool { return o.IsWrite() || o.IsRead() }

// IsCollective reports whether the operation is a collective variant.
func (o Op) IsCollective() bool {
	switch o {
	case OpWriteAtAll, OpReadAtAll, OpWriteAll, OpReadAll:
		return true
	}
	return false
}

// Event is one traced MPI-IO call by one rank (a row of Figure 2). Offset
// is the view-relative offset in bytes, exactly what the application passed
// (the phase model works in the file's logical view, as §III-A1 describes).
type Event struct {
	Rank     int            // IdP
	File     int            // IdF
	Op       Op             // MPI-Operation
	Offset   int64          // view-relative offset in bytes
	Tick     int64          // logical time (PAS2P tick)
	Size     int64          // RequestSize in bytes
	Time     units.Duration // virtual time at call start
	Duration units.Duration // call duration
}

// ViewInfo is one rank's recorded file view (MPI_File_set_view arguments),
// in machine-usable form so the analyzer can translate view offsets to
// physical file offsets. Block == 0 means a contiguous filetype.
type ViewInfo struct {
	Rank   int   `json:"rank"`
	Disp   int64 `json:"disp"`
	Etype  int64 `json:"etype"`
	Block  int64 `json:"block"`
	Stride int64 `json:"stride"`
	Phase  int64 `json:"phase"`
}

// Physical translates a view-relative offset (etype units) to the physical
// byte offset of the first byte accessed.
func (v ViewInfo) Physical(offEtypes int64) int64 {
	b := offEtypes * v.Etype
	if v.Block <= 0 {
		return v.Disp + b
	}
	blk := b / v.Block
	within := b % v.Block
	return v.Disp + v.Phase + blk*v.Stride + within
}

// FileMeta is the per-file metadata of §III-A1 / §IV: how the application
// opened and viewed the file, recorded (not inferred) by the tracer.
type FileMeta struct {
	ID         int        `json:"id"`
	Name       string     `json:"name"`
	AccessType string     `json:"accessType"` // "shared" | "unique"
	PointerSet string     `json:"pointerSet"` // "explicit" | "individual" | "shared"
	Collective bool       `json:"collective"` // any collective data op seen
	Blocking   bool       `json:"blocking"`   // all ops blocking (always true here)
	HasView    bool       `json:"hasView"`    // MPI_File_set_view used
	ViewDisp   int64      `json:"viewDisp"`
	ViewEtype  int64      `json:"viewEtype"` // etype extent in bytes
	ViewDesc   string     `json:"viewDesc"`  // human-readable filetype description
	Views      []ViewInfo `json:"views,omitempty"`
}

// ViewOf returns rank p's recorded view, or a byte-contiguous default.
func (m *FileMeta) ViewOf(p int) ViewInfo {
	for _, v := range m.Views {
		if v.Rank == p {
			return v
		}
	}
	return ViewInfo{Rank: p, Etype: 1}
}

// Set is the complete characterization of one application run: all ranks'
// traces plus metadata — the traceFile(p) collection of Table I.
type Set struct {
	App    string     `json:"app"`
	Config string     `json:"config"` // cluster the trace was taken on
	NP     int        `json:"np"`
	Files  []FileMeta `json:"files"`
	// Events holds one slice per rank, each sorted by tick.
	Events [][]Event `json:"events"`
}

// NewSet allocates a Set for np ranks.
func NewSet(app, config string, np int) *Set {
	return &Set{App: app, Config: config, NP: np, Events: make([][]Event, np)}
}

// Record appends an event to its rank's trace.
func (s *Set) Record(ev Event) {
	s.Events[ev.Rank] = append(s.Events[ev.Rank], ev)
}

// FileMetaByID returns metadata for file id, or nil. The first entry with
// that id wins.
func (s *Set) FileMetaByID(id int) *FileMeta {
	for i := range s.Files {
		if s.Files[i].ID == id {
			return &s.Files[i]
		}
	}
	return nil
}

// View returns rank p's recorded view of file id, or a byte-contiguous
// default when none is recorded.
func (s *Set) View(id, p int) ViewInfo {
	if m := s.FileMetaByID(id); m != nil {
		return m.ViewOf(p)
	}
	return ViewInfo{Rank: p, Etype: 1}
}

// AddFile registers file metadata, replacing an existing entry for the same
// id.
func (s *Set) AddFile(m FileMeta) {
	for i := range s.Files {
		if s.Files[i].ID == m.ID {
			s.Files[i] = m
			return
		}
	}
	s.Files = append(s.Files, m)
}

// TotalBytes sums data volume by direction across all ranks.
func (s *Set) TotalBytes() (written, read int64) {
	for _, evs := range s.Events {
		for _, ev := range evs {
			switch {
			case ev.Op.IsWrite():
				written += ev.Size
			case ev.Op.IsRead():
				read += ev.Size
			}
		}
	}
	return written, read
}

// DataEvents returns rank p's data-moving events in tick order, in a slice
// sized exactly (one counting pass, one allocation).
func (s *Set) DataEvents(p int) []Event {
	n := 0
	for i := range s.Events[p] {
		if s.Events[p][i].Op.IsData() {
			n++
		}
	}
	out := make([]Event, 0, n)
	for _, ev := range s.Events[p] {
		if ev.Op.IsData() {
			out = append(out, ev)
		}
	}
	return out
}
