package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"iophases/internal/units"
)

// Format identifies a per-rank trace file encoding.
type Format int

// Per-rank trace encodings.
const (
	FormatText   Format = iota // trace.<p>.txt, the Figure 2 column layout
	FormatBinary               // trace.<p>.bin, delta-encoded varints
)

// Ext is the per-rank file extension of the encoding.
func (f Format) Ext() string {
	if f == FormatBinary {
		return ".bin"
	}
	return ".txt"
}

func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "binary":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want text or binary)", s)
}

// rankPath returns the on-disk file for rank p in the given format.
func rankPath(dir string, p int, f Format) string {
	return filepath.Join(dir, fmt.Sprintf("trace.%d%s", p, f.Ext()))
}

// textEncoder streams events into the Figure 2 column format: header on
// creation, rows in bounded chunks, buffered flush on close.
type textEncoder struct {
	bw  *bufio.Writer
	err error
}

func newTextEncoder(w io.Writer) *textEncoder {
	e := &textEncoder{bw: bufio.NewWriter(w)}
	_, e.err = fmt.Fprintf(e.bw, "%-4s %-4s %-26s %-14s %-8s %-12s %-12s %s\n",
		"IdP", "IdF", "MPI-Operation", "Offset", "tick", "RequestSize", "time", "duration")
	return e
}

func (e *textEncoder) writeEvents(events []Event) {
	if e.err != nil {
		return
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(e.bw, "%-4d %-4d %-26s %-14d %-8d %-12d %-12.6f %.6f\n",
			ev.Rank, ev.File, ev.Op, ev.Offset, ev.Tick, ev.Size,
			ev.Time.Seconds(), ev.Duration.Seconds()); err != nil {
			e.err = err
			return
		}
	}
}

func (e *textEncoder) close() error {
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// WriteText renders one rank's trace in the column format of Figure 2.
func WriteText(w io.Writer, events []Event) error {
	e := newTextEncoder(w)
	e.writeEvents(events)
	return e.close()
}

// maxTextMicros bounds a text time column: up to 2^53 ns (about 104
// days) the writer's %.6f of Duration.Seconds prints every whole
// microsecond exactly, so whatever parseSeconds returns reads back
// unchanged after a rewrite.
const maxTextMicros = (1 << 53) / 1000

// parseSeconds decodes a time column of decimal seconds, rounded to the
// microsecond the writer prints. NaN, infinities and times beyond
// ±maxTextMicros are errors.
func parseSeconds(s string) (units.Duration, error) {
	sec, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	us := math.Round(sec * 1e6)
	if !(math.Abs(us) <= maxTextMicros) { // NaN fails this too
		return 0, fmt.Errorf("%q seconds is out of range", s)
	}
	return units.Duration(us) * units.Microsecond, nil
}

// maxLineLen bounds one trace line; the widest legitimate row (all int64
// fields at full width) is well under 1 KiB, so 1 MiB means corrupt input.
const maxLineLen = 1024 * 1024

// parseTextLine decodes one WriteText row. ok is false for blank and header
// lines. The row's IdP must match wantRank, the rank of the per-rank file
// being read — a mismatched row would silently corrupt rank attribution
// downstream (phases group by rank).
func parseTextLine(text string, line, wantRank int) (ev Event, ok bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "IdP") {
		return Event{}, false, nil
	}
	fields := strings.Fields(text)
	if len(fields) != 8 {
		return Event{}, false, fmt.Errorf("trace: line %d has %d fields, want 8", line, len(fields))
	}
	if ev.Rank, err = strconv.Atoi(fields[0]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d IdP: %v", line, err)
	}
	if ev.Rank != wantRank {
		return Event{}, false, fmt.Errorf("trace: line %d: IdP %d does not match rank %d of this trace file", line, ev.Rank, wantRank)
	}
	if ev.File, err = strconv.Atoi(fields[1]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d IdF: %v", line, err)
	}
	ev.Op = Op(fields[2])
	if ev.Offset, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d offset: %v", line, err)
	}
	if ev.Tick, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d tick: %v", line, err)
	}
	if ev.Size, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d size: %v", line, err)
	}
	if ev.Time, err = parseSeconds(fields[6]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d time: %v", line, err)
	}
	if ev.Duration, err = parseSeconds(fields[7]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d duration: %v", line, err)
	}
	return ev, true, nil
}

// scanErr wraps a scanner failure with position context; bufio reports an
// overlong line as the bare ErrTooLong, which is useless without knowing
// where in a multi-gigabyte trace it happened.
func scanErr(err error, line int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("trace: line %d exceeds %d bytes: %w", line, maxLineLen, err)
	}
	return fmt.Errorf("trace: line %d: %w", line, err)
}

// textReader incrementally parses a per-rank text trace, validating that
// every row's IdP matches the rank the file claims to hold.
type textReader struct {
	rc   io.ReadCloser
	sc   *bufio.Scanner
	buf  *[scanBufLen]byte // the scanner's first buffer, pooled
	ops  map[Op]Op         // op names seen so far, each held in its own string
	want int
	line int
	path string
}

// scanBufLen is a text reader's initial line buffer; the scanner grows
// past it up to maxLineLen for a longer row.
const scanBufLen = 64 * 1024

// scanBufs keeps the text readers' initial line buffers across readers.
var scanBufs = sync.Pool{New: func() any { return new([scanBufLen]byte) }}

func newTextReader(rc io.ReadCloser, want int, path string) *textReader {
	buf := scanBufs.Get().(*[scanBufLen]byte)
	sc := bufio.NewScanner(rc)
	sc.Buffer(buf[:], maxLineLen)
	return &textReader{rc: rc, sc: sc, buf: buf, ops: make(map[Op]Op), want: want, path: path}
}

// intern returns the reader's own copy of op, which parseTextLine cut out of
// the scanned row: events with the same name share one string, and none
// keeps its whole row alive.
func (r *textReader) intern(op Op) Op {
	if s, ok := r.ops[op]; ok {
		return s
	}
	s := Op(strings.Clone(string(op)))
	r.ops[s] = s
	return s
}

func (r *textReader) Read(buf []Event) (int, error) {
	n := 0
	for n < len(buf) {
		if !r.sc.Scan() {
			if err := scanErr(r.sc.Err(), r.line+1); err != nil {
				return n, fmt.Errorf("%s: %v", r.path, err)
			}
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		r.line++
		ev, ok, err := parseTextLine(r.sc.Text(), r.line, r.want)
		if err != nil {
			return n, fmt.Errorf("%s: %v", r.path, err)
		}
		if ok {
			ev.Op = r.intern(ev.Op)
			buf[n] = ev
			n++
		}
	}
	return n, nil
}

// Close returns the line buffer to the pool; the reader is not used after.
func (r *textReader) Close() error {
	if r.buf != nil {
		scanBufs.Put(r.buf)
		r.sc, r.buf = nil, nil
	}
	return r.rc.Close()
}

// saveMeta writes the meta.json sidecar.
func saveMeta(dir string, m Meta) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644)
}

// WriteDir writes a trace directory: meta.json plus trace.<rank><ext> per
// rank in the given encoding. It is the one writer of trace directories.
// A Set's own Source hands each rank's resident slice to the encoder whole;
// any other Source is drained one bounded chunk at a time, so memory stays
// bounded no matter how large the trace is.
func WriteDir(src Source, dstDir string, format Format) error {
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return err
	}
	m := src.Meta()
	if err := saveMeta(dstDir, m); err != nil {
		return err
	}
	for p := 0; p < m.NP; p++ {
		if err := writeRank(src, p, rankPath(dstDir, p, format), format); err != nil {
			return err
		}
	}
	return nil
}

// writeRank encodes rank p of src into a new file at path.
func writeRank(src Source, p int, path string, format Format) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if format == FormatBinary {
		bw, err := NewBinaryWriter(f, p)
		if err != nil {
			return err
		}
		err = Each(src, p, func(evs []Event) error {
			for _, ev := range evs {
				if err := bw.Write(ev); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return bw.Close()
	}
	tw := newTextEncoder(f)
	if err := Each(src, p, func(evs []Event) error {
		tw.writeEvents(evs)
		return nil
	}); err != nil {
		return err
	}
	return tw.close()
}

// ConvertDir re-encodes a saved trace directory into dst with the given
// per-rank format, streaming rank by rank through WriteDir.
func ConvertDir(srcDir, dstDir string, f Format) error {
	src, err := OpenDir(srcDir)
	if err != nil {
		return err
	}
	return WriteDir(src, dstDir, f)
}

// Save writes a Set to dir in the text format: meta.json plus
// trace.<rank>.txt per rank.
func (s *Set) Save(dir string) error { return WriteDir(s.Source(), dir, FormatText) }

// loadMeta reads and decodes dir's meta.json sidecar.
func loadMeta(dir string) (Meta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return Meta{}, fmt.Errorf("trace: meta.json: %v", err)
	}
	return m, nil
}

// Load reads a Set written by WriteDir (per-rank format auto-detected,
// binary preferred when both exist).
func Load(dir string) (*Set, error) {
	src, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return ReadSet(src)
}
