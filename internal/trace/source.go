package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Meta describes a trace set without its events; it is also the meta.json
// sidecar written next to the per-rank trace files. Sources expose it so
// consumers can size per-rank work before reading a single event.
type Meta struct {
	App    string     `json:"app"`
	Config string     `json:"config"`
	NP     int        `json:"np"`
	Files  []FileMeta `json:"files"`
}

// Reader streams one rank's events in trace order. Read fills buf and
// returns how many events were decoded; it returns 0, io.EOF once the rank's
// stream is exhausted (a call may also return n > 0 with a nil error and
// io.EOF only on the next call). Any other error is a decode failure.
type Reader interface {
	Read(buf []Event) (int, error)
	Close() error
}

// Source provides per-rank event streams plus the set metadata. OpenRank may
// be called any number of times per rank — every call restarts the rank's
// stream from the beginning, which is what lets phase.IdentifyStream's
// fallback re-read a rank, for split repetitions its miner could not time,
// without buffering events.
type Source interface {
	Meta() Meta
	OpenRank(p int) (Reader, error)
}

// Source adapts an in-memory Set to the streaming interface: the backend
// used when the events are already resident (traced runs, tests). Each
// recognizes it and hands out the resident slices without a reader.
func (s *Set) Source() Source { return setSource{s} }

type setSource struct{ s *Set }

func (ss setSource) Meta() Meta {
	return Meta{App: ss.s.App, Config: ss.s.Config, NP: ss.s.NP, Files: ss.s.Files}
}

func (ss setSource) OpenRank(p int) (Reader, error) {
	if p < 0 || p >= ss.s.NP {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", p, ss.s.NP)
	}
	return &sliceReader{evs: ss.s.Events[p]}, nil
}

// sliceReader streams an in-memory event slice.
type sliceReader struct{ evs []Event }

func (r *sliceReader) Read(buf []Event) (int, error) {
	if len(r.evs) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, r.evs)
	r.evs = r.evs[n:]
	return n, nil
}

func (r *sliceReader) Close() error { return nil }

// dirSource streams a saved trace directory rank by rank, auto-detecting
// the per-rank encoding (binary preferred when both files exist).
type dirSource struct {
	dir  string
	meta Meta
	fmts []Format
}

// OpenDir opens a trace directory written by WriteDir as a streaming
// Source. Only meta.json is read eagerly; per-rank files are
// opened (and their rank headers validated) on OpenRank.
func OpenDir(dir string) (Source, error) {
	m, err := loadMeta(dir)
	if err != nil {
		return nil, err
	}
	if m.NP < 1 {
		return nil, fmt.Errorf("trace: %s: np is %d, want at least 1",
			filepath.Join(dir, "meta.json"), m.NP)
	}
	d := &dirSource{dir: dir, meta: m}
	// fmts grows as rank files are found, so an absurd np fails at the
	// first missing file instead of sizing an allocation.
	for p := 0; p < m.NP; p++ {
		switch {
		case fileExists(rankPath(dir, p, FormatBinary)):
			d.fmts = append(d.fmts, FormatBinary)
		case fileExists(rankPath(dir, p, FormatText)):
			d.fmts = append(d.fmts, FormatText)
		default:
			return nil, fmt.Errorf("trace: rank %d: neither %s nor %s exists",
				p, rankPath(dir, p, FormatBinary), rankPath(dir, p, FormatText))
		}
	}
	return d, nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func (d *dirSource) Meta() Meta { return d.meta }

func (d *dirSource) OpenRank(p int) (Reader, error) {
	if p < 0 || p >= d.meta.NP {
		return nil, fmt.Errorf("trace: rank %d out of range [0,%d)", p, d.meta.NP)
	}
	path := rankPath(d.dir, p, d.fmts[p])
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if d.fmts[p] == FormatBinary {
		br, err := newBinReader(f, p, path)
		if err != nil {
			f.Close()
			return nil, err
		}
		return br, nil
	}
	return newTextReader(f, p, path), nil
}

// eachChunk is Each's read buffer length in events: small enough that one
// buffer per concurrently read rank is negligible, large enough to
// amortize the Reader call overhead.
const eachChunk = 2048

// chunkBufs keeps Each's read buffers (about 147 KB each) across calls, so
// reading a short rank does not allocate one.
var chunkBufs = sync.Pool{New: func() any { return new([eachChunk]Event) }}

// Each calls fn with rank p's events in trace order, one chunk at a time,
// and returns the first error from the source or from fn; an error from fn
// stops the loop. fn is never called with an empty chunk. For a Set's own
// Source the rank's resident slice is passed whole, in a single call, with
// no reader and no copy; any other source is read in eachChunk-event chunks
// through one buffer, which later calls reuse. fn must not retain or
// modify the slice.
func Each(src Source, p int, fn func([]Event) error) (err error) {
	if ss, ok := src.(setSource); ok && p >= 0 && p < ss.s.NP {
		if evs := ss.s.Events[p]; len(evs) > 0 {
			return fn(evs)
		}
		return nil
	}
	r, err := src.OpenRank(p)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}()
	chunk := chunkBufs.Get().(*[eachChunk]Event)
	defer chunkBufs.Put(chunk)
	buf := chunk[:]
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := fn(buf[:n]); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// ReadAll drains a Reader into a slice.
func ReadAll(r Reader) ([]Event, error) {
	var out []Event
	buf := make([]Event, 4096)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ReadSet materializes a Source into an in-memory Set.
func ReadSet(src Source) (*Set, error) {
	m := src.Meta()
	s := NewSet(m.App, m.Config, m.NP)
	s.Files = m.Files
	for p := 0; p < m.NP; p++ {
		err := Each(src, p, func(evs []Event) error {
			s.Events[p] = append(s.Events[p], evs...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
