package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"iophases/internal/core"
	"iophases/internal/trace"
)

// extract-bin: one op is core.BuildStream(trace.OpenDir(dir)) over one of
// several IOBIN1 trace directories written in setup from seeded
// trace.Synth specs. Decoding, LAP mining, two-pass phase identification
// and model assembly do all the work; nothing is simulated and the heap
// stays small.
type extractBin struct {
	specs []trace.SynthSpec
	dirs  []string
	want  []synthExpect
	refs  []string // model digests, built straight from the generator
}

// synthExpect is what a SynthSpec implies for its model.
type synthExpect struct {
	phases int
	bytes  int64
}

// synthDumps mirrors the generator's trailing dump writes per rank.
const synthDumps = 4

// expectOf derives the phase count and total volume a synthetic trace must
// extract to: one mixed write-read phase per round of the bulk section,
// plus the dump LAP split into one phase per repetition. Volume is
// conserved: every bulk event moves RequestSize bytes and every dump twice
// that.
func expectOf(sp trace.SynthSpec) synthExpect {
	bulk := sp.EventsPerRank
	if bulk > 4*synthDumps {
		bulk -= synthDumps
	}
	rounds := (bulk + sp.RoundLen - 1) / sp.RoundLen
	perRank := bulk*sp.RequestSize + synthDumps*2*sp.RequestSize
	return synthExpect{phases: int(rounds) + synthDumps, bytes: int64(sp.NP) * perRank}
}

func modelDigest(m *core.Model) (string, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	return digestOf(string(raw)), nil
}

func modelBytes(m *core.Model) int64 {
	var n int64
	for _, pm := range m.Phases {
		n += pm.Weight
	}
	return n
}

func newExtractBin(seed int64, dir string, st *setupStats) (workload, error) {
	w := &extractBin{specs: synthSpecs(seed)}
	for i, sp := range w.specs {
		src, err := trace.Synth(sp)
		if err != nil {
			return nil, err
		}
		d := filepath.Join(dir, fmt.Sprintf("synth%d", i))
		if err := st.timed("trace.encode", func() error { return trace.WriteDir(src, d, trace.FormatBinary) }); err != nil {
			return nil, err
		}
		m, err := core.BuildStream(src)
		if err != nil {
			return nil, err
		}
		ref, err := modelDigest(m)
		if err != nil {
			return nil, err
		}
		want := expectOf(sp)
		if err := checkExtract(m, want); err != nil {
			return nil, fmt.Errorf("spec %+v: reference: %w", sp, err)
		}
		w.dirs = append(w.dirs, d)
		w.want = append(w.want, want)
		w.refs = append(w.refs, ref)
	}
	return w, nil
}

func checkExtract(m *core.Model, want synthExpect) error {
	if len(m.Phases) != want.phases {
		return fmt.Errorf("%d phases, the spec implies %d", len(m.Phases), want.phases)
	}
	if got := modelBytes(m); got != want.bytes {
		return fmt.Errorf("%d bytes in phases, the spec implies %d", got, want.bytes)
	}
	return nil
}

func (w *extractBin) index(i int) int { return i % len(w.dirs) }

func (w *extractBin) input(i int) string {
	sp := w.specs[w.index(i)]
	return fmt.Sprintf("synth np%d round%d rs%d", sp.NP, sp.RoundLen, sp.RequestSize)
}

func (w *extractBin) op(i int) error {
	k := w.index(i)
	src, err := trace.OpenDir(w.dirs[k])
	if err != nil {
		return err
	}
	m, err := core.BuildStream(src)
	if err != nil {
		return err
	}
	return w.check(k, m)
}

func (w *extractBin) check(k int, m *core.Model) error {
	if err := checkExtract(m, w.want[k]); err != nil {
		return err
	}
	got, err := modelDigest(m)
	if err != nil {
		return err
	}
	if got != w.refs[k] {
		return fmt.Errorf("input %d: model digest %s, setup had %s", k, got[:12], w.refs[k][:12])
	}
	return nil
}

func (w *extractBin) tracedOps() int { return 2 * len(w.dirs) }

func (w *extractBin) tracedOp(i int, t *tracing) error {
	k := w.index(i)
	before := readCounters()
	opID := t.rec.begin("op extract-bin", -1, i)
	var src trace.Source
	var err error
	t.rec.timed("trace.OpenDir", opID, i, func() { src, err = trace.OpenDir(w.dirs[k]) })
	if err != nil {
		return err
	}
	sp := w.specs[k]
	m, build, err := t.tracedBuild(src, opID, i, int64(sp.NP)*sp.EventsPerRank)
	t.rec.end(opID)
	if err != nil {
		return err
	}
	t.countOp(before, readCounters(), t.rec.get(opID).dur(), false)
	if err := w.check(k, m); err != nil {
		return err
	}
	return t.extractionProbes(func() (trace.Source, error) { return trace.OpenDir(w.dirs[k]) }, build, i)
}

func (w *extractBin) close() {}
