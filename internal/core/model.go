// Package core defines the application I/O abstract model — the paper's
// primary contribution. A Model captures, independently of any I/O
// subsystem, the three characteristics of §III-A1: metadata (how files are
// opened, viewed and accessed), the spatial global pattern (offset
// functions, displacements, request sizes) and the temporal global pattern
// (phase ordering by logical ticks). A Model extracted on one cluster can
// be replayed with IOR-style benchmarks on any other cluster to estimate
// the application's I/O time there (Eq. 1–2), without running the
// application again.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"iophases/internal/phase"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// Direction classifies a phase's data movement.
type Direction string

// Phase directions.
const (
	Write Direction = "W"
	Read  Direction = "R"
	Mixed Direction = "W-R"
)

// OpModel is one operation slot of a phase (request size, physical
// per-repetition displacement, and the slot's offset skew from slot 0).
type OpModel struct {
	Op   trace.Op `json:"op"`
	Size int64    `json:"size"`
	Disp int64    `json:"disp"`
	Skew int64    `json:"skew,omitempty"`
}

// PhaseModel is the abstract form of one I/O phase.
type PhaseModel struct {
	ID         int       `json:"id"`
	File       int       `json:"file"`
	Ops        []OpModel `json:"ops"`
	Rep        int       `json:"rep"`
	NP         int       `json:"np"`
	Weight     int64     `json:"weight"` // bytes
	Tick       int64     `json:"tick"`
	Collective bool      `json:"collective"`
	OffsetC    int64     `json:"offsetC"`
	OffsetA    int64     `json:"offsetA"`
	OffsetB    int64     `json:"offsetB"`
	OffsetD    int64     `json:"offsetD"`
	OffsetOK   bool      `json:"offsetExact"`
	OffsetExpr string    `json:"offsetExpr"`
	FamilyID   int       `json:"familyId"`
	FamilyRep  int       `json:"familyRep"`

	// MeasuredSec is the phase's elapsed I/O time on the system the
	// trace was taken on. It is not part of the abstract model (it is
	// subsystem-dependent) but rides along for validation (Tables
	// XIII–XIV compare estimates against it on the target system).
	MeasuredSec float64 `json:"measuredSec,omitempty"`
	// StartSec is the phase's start in the traced run (app-relative),
	// giving the temporal pattern a wall-clock skeleton for planning.
	StartSec float64 `json:"startSec,omitempty"`
}

// Direction reports the phase's data direction.
func (pm *PhaseModel) Direction() Direction {
	var w, r bool
	for _, op := range pm.Ops {
		w = w || op.Op.IsWrite()
		r = r || op.Op.IsRead()
	}
	switch {
	case w && r:
		return Mixed
	case w:
		return Write
	default:
		return Read
	}
}

// RequestSize reports the phase's request size rs (first slot).
func (pm *PhaseModel) RequestSize() int64 { return pm.Ops[0].Size }

// OffsetFn reconstructs the fitted offset function.
func (pm *PhaseModel) OffsetFn() phase.OffsetFn {
	return phase.OffsetFn{C: pm.OffsetC, A: pm.OffsetA, B: pm.OffsetB, D: pm.OffsetD, Exact: pm.OffsetOK}
}

// ReplaySpec is the IOR parameterization of a phase per §III-B: one
// segment, per-process block weight/np, transfer size rs, np processes,
// file-per-process and collective flags from metadata. Mixed phases replay
// as a write pass and a read pass whose bandwidths are averaged — the
// paper's stated treatment (and the source of its phase-3 error).
type ReplaySpec struct {
	PhaseID      int
	NP           int
	BlockPerProc int64 // b = weight/np
	Transfer     int64 // t = rs
	Segments     int   // s = 1
	FilePerProc  bool  // -F
	Collective   bool  // -c
	Direction    Direction
}

// Replay derives the phase's IOR parameters.
func (pm *PhaseModel) Replay(accessType string) ReplaySpec {
	return ReplaySpec{
		PhaseID:      pm.ID,
		NP:           pm.NP,
		BlockPerProc: pm.Weight / int64(pm.NP),
		Transfer:     pm.RequestSize(),
		Segments:     1,
		FilePerProc:  accessType == "unique",
		Collective:   pm.Collective,
		Direction:    pm.Direction(),
	}
}

// Model is the application I/O abstract model.
type Model struct {
	App          string `json:"app"`
	SourceConfig string `json:"sourceConfig"`
	NP           int    `json:"np"`
	// Files carries the traced files' metadata; model replays open their
	// own per-phase files, not these names.
	Files      []trace.FileMeta `json:"files"`
	Phases     []*PhaseModel    `json:"phases"`
	AccessMode string           `json:"accessMode"` // sequential | strided | random
	AccessType string           `json:"accessType"` // shared | unique
	PointerSet string           `json:"pointerSet"`
	Collective bool             `json:"collective"`
}

// Build extracts the model from a trace set: phase identification plus
// metadata derivation.
func Build(set *trace.Set) *Model {
	return modelFromResult(phase.Identify(set))
}

// BuildStream extracts the model from a trace source without materializing
// the events: phase.IdentifyStream keeps memory bounded by np and LAP
// count, not trace length. Build runs the same pipeline over a resident
// Set, so the two agree by construction. Use for traces too large to Load.
func BuildStream(src trace.Source) (*Model, error) {
	res, err := phase.IdentifyStream(src)
	if err != nil {
		return nil, err
	}
	return modelFromResult(res), nil
}

// modelFromResult converts a phase decomposition into the abstract model.
func modelFromResult(res *phase.Result) *Model {
	set := res.Set
	m := &Model{
		App:          set.App,
		SourceConfig: set.Config,
		NP:           set.NP,
		Files:        append([]trace.FileMeta(nil), set.Files...),
	}
	for _, ph := range res.Phases {
		pm := &PhaseModel{
			ID:         ph.ID,
			File:       ph.File,
			Rep:        ph.Rep,
			NP:         ph.NP,
			Weight:     ph.Weight,
			Tick:       ph.Tick,
			Collective: ph.Collective,
			OffsetC:    ph.OffsetFn.C,
			OffsetA:    ph.OffsetFn.A,
			OffsetB:    ph.OffsetFn.B,
			OffsetD:    ph.OffsetFn.D,
			OffsetOK:   ph.OffsetFn.Exact,
			OffsetExpr: ph.OffsetFn.Render(ph.RequestSize(), ph.NP),
			FamilyID:   ph.FamilyID,
			FamilyRep:  ph.FamilyRep,
		}
		for _, op := range ph.Ops {
			pm.Ops = append(pm.Ops, OpModel{Op: op.Op, Size: op.Size, Disp: op.Disp, Skew: op.Skew})
		}
		pm.MeasuredSec = ph.MeasuredTime().Seconds()
		pm.StartSec = ph.StartTime().Seconds()
		m.Phases = append(m.Phases, pm)
	}
	m.deriveMetadata()
	return m
}

// deriveMetadata fills the global access characteristics from file metadata
// and phase geometry.
func (m *Model) deriveMetadata() {
	m.AccessMode = "sequential"
	m.AccessType = "shared"
	m.PointerSet = "explicit"
	for _, f := range m.Files {
		if f.AccessType == "unique" {
			m.AccessType = "unique"
		}
		if f.PointerSet == "individual" {
			m.PointerSet = "individual"
		}
		if f.Collective {
			m.Collective = true
		}
		for _, v := range f.Views {
			if v.Block > 0 && v.Stride > v.Block {
				m.AccessMode = "strided"
			}
		}
	}
	if m.AccessMode == "strided" {
		return
	}
	// No strided view: classify from phase displacements.
	irregular := false
	for _, pm := range m.Phases {
		for _, op := range pm.Ops {
			if pm.Rep > 1 && op.Disp != op.Size {
				if op.Disp > op.Size {
					m.AccessMode = "strided"
				} else {
					irregular = true
				}
			}
		}
	}
	if irregular && m.AccessMode == "sequential" {
		m.AccessMode = "random"
	}
}

// TotalBytes sums phase weights by direction.
func (m *Model) TotalBytes() (written, read int64) {
	for _, pm := range m.Phases {
		for _, op := range pm.Ops {
			vol := op.Size * int64(pm.Rep) * int64(pm.NP)
			if op.Op.IsWrite() {
				written += vol
			} else if op.Op.IsRead() {
				read += vol
			}
		}
	}
	return
}

// Families groups phases by family id, preserving order (unsplit phases
// are singleton groups).
func (m *Model) Families() [][]*PhaseModel {
	var out [][]*PhaseModel
	index := make(map[int]int)
	for _, pm := range m.Phases {
		if pm.FamilyID == 0 {
			out = append(out, []*PhaseModel{pm})
			continue
		}
		if i, ok := index[pm.FamilyID]; ok {
			out[i] = append(out[i], pm)
		} else {
			index[pm.FamilyID] = len(out)
			out = append(out, []*PhaseModel{pm})
		}
	}
	return out
}

// SameShape reports whether two models describe the same application I/O
// behaviour — the paper's subsystem-independence claim: extracting the
// model on two different clusters must yield equal shapes (everything
// except measured times).
func (m *Model) SameShape(o *Model) bool {
	if m.App != o.App || m.NP != o.NP || len(m.Phases) != len(o.Phases) {
		return false
	}
	if m.AccessMode != o.AccessMode || m.AccessType != o.AccessType ||
		m.Collective != o.Collective || m.PointerSet != o.PointerSet {
		return false
	}
	for i, a := range m.Phases {
		b := o.Phases[i]
		if a.Weight != b.Weight || a.Rep != b.Rep || a.NP != b.NP ||
			a.Tick != b.Tick || a.Collective != b.Collective ||
			a.OffsetC != b.OffsetC || a.OffsetA != b.OffsetA ||
			a.OffsetB != b.OffsetB || a.OffsetD != b.OffsetD ||
			len(a.Ops) != len(b.Ops) {
			return false
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] {
				return false
			}
		}
	}
	return true
}

// AccessPoint is one modeled access in the three-dimensional space of
// Figure 5: logical time (tick) × process × file offset.
type AccessPoint struct {
	Tick   int64
	Rank   int
	Offset int64
	Size   int64
	Dir    Direction
}

// AccessPoints expands the model into the global access pattern scatter
// used by the spatial/temporal figures (5, 7, 9, 10). Repetitions inside a
// phase advance by the slot displacement and one tick each.
func (m *Model) AccessPoints() []AccessPoint {
	var out []AccessPoint
	for _, pm := range m.Phases {
		fn := pm.OffsetFn()
		rep1 := pm.FamilyRep
		if rep1 == 0 {
			rep1 = 1
		}
		for rank := 0; rank < pm.NP; rank++ {
			base := fn.Eval(rank, rep1)
			for rep := 0; rep < pm.Rep; rep++ {
				off := base
				for slot, op := range pm.Ops {
					dir := Write
					if op.Op.IsRead() {
						dir = Read
					}
					out = append(out, AccessPoint{
						Tick:   pm.Tick + int64(rep*len(pm.Ops)+slot),
						Rank:   rank,
						Offset: off + int64(rep)*op.Disp + op.Skew,
						Size:   op.Size,
						Dir:    dir,
					})
				}
			}
		}
	}
	return out
}

// Diff explains how two models differ, one line per divergence (empty when
// SameShape holds) — the diagnostic behind the subsystem-independence
// check.
func (m *Model) Diff(o *Model) []string {
	var out []string
	add := func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if m.App != o.App {
		add("app: %q vs %q", m.App, o.App)
	}
	if m.NP != o.NP {
		add("np: %d vs %d", m.NP, o.NP)
	}
	for _, d := range []struct{ name, a, b string }{
		{"access mode", m.AccessMode, o.AccessMode},
		{"access type", m.AccessType, o.AccessType},
		{"pointer set", m.PointerSet, o.PointerSet},
	} {
		if d.a != d.b {
			add("%s: %q vs %q", d.name, d.a, d.b)
		}
	}
	if m.Collective != o.Collective {
		add("collective: %v vs %v", m.Collective, o.Collective)
	}
	if len(m.Phases) != len(o.Phases) {
		add("phase count: %d vs %d", len(m.Phases), len(o.Phases))
		return out
	}
	for i, a := range m.Phases {
		b := o.Phases[i]
		switch {
		case a.Weight != b.Weight:
			add("phase %d weight: %d vs %d", a.ID, a.Weight, b.Weight)
		case a.Rep != b.Rep:
			add("phase %d rep: %d vs %d", a.ID, a.Rep, b.Rep)
		case a.NP != b.NP:
			add("phase %d np: %d vs %d", a.ID, a.NP, b.NP)
		case a.Tick != b.Tick:
			add("phase %d tick: %d vs %d", a.ID, a.Tick, b.Tick)
		case a.Collective != b.Collective:
			add("phase %d collective: %v vs %v", a.ID, a.Collective, b.Collective)
		case a.OffsetA != b.OffsetA || a.OffsetB != b.OffsetB ||
			a.OffsetC != b.OffsetC || a.OffsetD != b.OffsetD:
			add("phase %d offset fn: %s vs %s", a.ID, a.OffsetExpr, b.OffsetExpr)
		case len(a.Ops) != len(b.Ops):
			add("phase %d op count: %d vs %d", a.ID, len(a.Ops), len(b.Ops))
		default:
			for j := range a.Ops {
				if a.Ops[j] != b.Ops[j] {
					add("phase %d op %d: %+v vs %+v", a.ID, j, a.Ops[j], b.Ops[j])
					break
				}
			}
		}
	}
	return out
}

// Save writes the model as Encode renders it.
func (m *Model) Save(path string) error {
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// Encode renders the model as indented JSON.
func (m *Model) Encode() ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// Load reads a model saved by Save.
func Load(path string) (*Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %v", path, err)
	}
	return m, nil
}

// Decode parses a model from Encode's JSON. It checks the syntax only;
// ior.ValidateModel checks that every phase can be replayed.
func Decode(raw []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// String renders the model in the descriptive style of Figures 7, 9, 10:
// metadata block plus the phase table.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O model of %s for %d processes (traced on %s)\n",
		m.App, m.NP, m.SourceConfig)
	fmt.Fprintf(&b, "  metadata: %s pointers, collective=%v, blocking=true\n",
		m.PointerSet, m.Collective)
	fmt.Fprintf(&b, "            %s access mode, %s access type\n", m.AccessMode, m.AccessType)
	w, r := m.TotalBytes()
	fmt.Fprintf(&b, "  volume:   %s written, %s read\n", units.FormatBytes(w), units.FormatBytes(r))
	fmt.Fprintf(&b, "  phases:   %d\n", len(m.Phases))
	fmt.Fprintf(&b, "%-6s %-8s %-10s %-5s %-10s %-8s %s\n",
		"Phase", "#Oper.", "rs", "Rep", "weight", "tick", "InitOffset")
	for _, pm := range m.Phases {
		fmt.Fprintf(&b, "%-6d %-8s %-10s %-5d %-10s %-8d %s\n",
			pm.ID,
			fmt.Sprintf("%d %s", len(pm.Ops)*pm.Rep*pm.NP, pm.Direction()),
			units.FormatBytes(pm.RequestSize()),
			pm.Rep,
			units.FormatBytes(pm.Weight),
			pm.Tick,
			pm.OffsetExpr)
	}
	return b.String()
}
