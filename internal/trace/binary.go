// Binary on-disk trace format — the compact per-rank encoding for large
// traces, in the spirit of Darshan's and Recorder's logs: field deltas
// against the previous event, zigzag varints, and an adaptive operation
// dictionary so each event costs a few bytes instead of a ~100-byte text row.
//
// Layout of trace.<p>.bin:
//
//	magic "IOBIN1" (6 bytes)
//	uvarint rank                      — must equal the <p> of the filename
//	records, each led by a uvarint code:
//	  0        end-of-trace sentinel (must be the final byte)
//	  1        op-define: uvarint length, then that many bytes of MPI
//	           operation name; appended to the dictionary
//	  n >= 2   event with Op = dict[n-2], followed by six signed varints —
//	           the deltas of File, Offset, Tick, Size, Time, Duration
//	           against the previous event (a zero Event for the first)
//
// Deltas use two's-complement wraparound, which is self-inverse, so even
// adversarial max-int64 jumps round-trip exactly. The sentinel lets the
// decoder tell clean end-of-trace from truncation. Rank is stored once in
// the header — a per-event IdP cannot disagree with the file, by
// construction (the text loader must validate this per row instead).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"iophases/internal/units"
)

var binMagic = []byte("IOBIN1")

// maxOpLen bounds one dictionary entry; MPI-IO routine names are < 32
// bytes, so anything longer is corrupt input, not a long name.
const maxOpLen = 256

// BinaryWriter encodes one rank's events into the binary format. Close
// writes the end-of-trace sentinel; a file without one is truncated.
type BinaryWriter struct {
	w    io.Writer
	ops  map[Op]uint64 // op name -> event code (>= 2)
	prev Event
	rank int
	buf  []byte
}

// NewBinaryWriter writes the header and returns an encoder for rank p.
func NewBinaryWriter(w io.Writer, p int) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: w, ops: make(map[Op]uint64), rank: p, buf: make([]byte, 0, 128)}
	bw.buf = append(bw.buf, binMagic...)
	bw.buf = binary.AppendUvarint(bw.buf, uint64(p))
	return bw, bw.flush()
}

func (bw *BinaryWriter) flush() error {
	if len(bw.buf) == 0 {
		return nil
	}
	_, err := bw.w.Write(bw.buf)
	bw.buf = bw.buf[:0]
	return err
}

// Write encodes one event. The event's Rank must match the writer's: the
// format stores rank once in the header.
func (bw *BinaryWriter) Write(ev Event) error {
	if ev.Rank != bw.rank {
		return fmt.Errorf("trace: binary rank %d: event has IdP %d", bw.rank, ev.Rank)
	}
	code, ok := bw.ops[ev.Op]
	if !ok {
		code = uint64(len(bw.ops)) + 2
		bw.ops[ev.Op] = code
		bw.buf = binary.AppendUvarint(bw.buf, 1)
		bw.buf = binary.AppendUvarint(bw.buf, uint64(len(ev.Op)))
		bw.buf = append(bw.buf, ev.Op...)
	}
	bw.buf = binary.AppendUvarint(bw.buf, code)
	bw.buf = binary.AppendVarint(bw.buf, int64(ev.File)-int64(bw.prev.File))
	bw.buf = binary.AppendVarint(bw.buf, ev.Offset-bw.prev.Offset)
	bw.buf = binary.AppendVarint(bw.buf, ev.Tick-bw.prev.Tick)
	bw.buf = binary.AppendVarint(bw.buf, ev.Size-bw.prev.Size)
	bw.buf = binary.AppendVarint(bw.buf, int64(ev.Time)-int64(bw.prev.Time))
	bw.buf = binary.AppendVarint(bw.buf, int64(ev.Duration)-int64(bw.prev.Duration))
	bw.prev = ev
	if len(bw.buf) >= 64*1024 {
		return bw.flush()
	}
	return nil
}

// Close writes the end-of-trace sentinel and flushes. It does not close the
// underlying writer.
func (bw *BinaryWriter) Close() error {
	bw.buf = binary.AppendUvarint(bw.buf, 0)
	return bw.flush()
}

// binWindow is the decoder's byte window over the rank file, one per open
// reader.
const binWindow = 64 * 1024

// binWindows keeps the decoders' windows across readers.
var binWindows = sync.Pool{New: func() any { return new([binWindow]byte) }}

// maxRecordLen bounds an event record: a code and six varints. Before each
// record the decoder refills its window to hold at least this many bytes
// unless the file ends first, so a record never has to wait for a read
// part-way.
const maxRecordLen = 7 * binary.MaxVarintLen64

// errOverflow is binary.ReadUvarint's error for a varint that does not fit
// 64 bits, with the same text.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// binReader decodes the binary format as a streaming Reader straight out of
// a byte window over the file: buf[pos:end] holds what has been read but not
// yet decoded.
type binReader struct {
	f        io.ReadCloser
	win      *[binWindow]byte // the window, pooled
	buf      []byte           // win[:]
	pos, end int
	rerr     error // what ended reading f: io.EOF at the end of the file
	ops      []Op
	// last holds the previous event's File, Offset, Tick, Size, Time and
	// Duration, against which the next event's deltas apply.
	last [6]int64
	rank int
	path string
	done bool
}

// newBinReader validates the header and returns a decoder for the trace
// of rank wantRank.
func newBinReader(rc io.ReadCloser, wantRank int, path string) (*binReader, error) {
	win := binWindows.Get().(*[binWindow]byte)
	d := &binReader{f: rc, win: win, buf: win[:], path: path}
	if err := d.header(wantRank); err != nil {
		d.release()
		return nil, err
	}
	return d, nil
}

// header decodes the magic and the rank number.
func (d *binReader) header(wantRank int) error {
	path := d.path
	buf, _ := d.fill(0, len(binMagic)+binary.MaxVarintLen64)
	if len(buf) < len(binMagic) {
		return fmt.Errorf("%s: trace: bad binary header: %v", path, d.short(len(buf)))
	}
	if magic := buf[:len(binMagic)]; string(magic) != string(binMagic) {
		return fmt.Errorf("%s: trace: bad magic %q (want %q)", path, magic, binMagic)
	}
	rank, k, err := d.uvarint(buf[len(binMagic):])
	if err != nil {
		return fmt.Errorf("%s: trace: reading rank: %v", path, err)
	}
	d.pos = len(binMagic) + k
	if rank > 1<<30 {
		return fmt.Errorf("%s: trace: implausible rank %d", path, rank)
	}
	if int(rank) != wantRank {
		return fmt.Errorf("%s: trace: header rank %d does not match rank %d of this trace file", path, rank, wantRank)
	}
	d.rank = int(rank)
	return nil
}

// maxEmptyReads is how many reads in a row may return neither bytes nor an
// error before fill fails with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// fill makes the window hold at least need (<= binWindow) undecoded bytes
// from pos on, unless reading f stops first: it slides them to the front
// and reads f until they are there. It returns the filled part of the
// window and where pos's byte now is in it.
func (d *binReader) fill(pos, need int) ([]byte, int) {
	if d.end-pos < need && d.rerr == nil {
		d.end = copy(d.buf, d.buf[pos:d.end])
		pos = 0
		for empty := 0; d.end < need && d.rerr == nil; {
			n, err := d.f.Read(d.buf[d.end:])
			d.end += n
			d.rerr = err
			if n > 0 {
				empty = 0
			} else if empty++; empty == maxEmptyReads && err == nil {
				d.rerr = io.ErrNoProgress
			}
		}
	}
	return d.buf[:d.end], pos
}

// short is the error of a read that found only avail of the bytes it needed
// because reading f stopped, by io.ReadFull's rules: io.EOF when the file
// ended before any of them, io.ErrUnexpectedEOF when it ended part-way, and
// any other read error as it is.
func (d *binReader) short(avail int) error {
	if d.rerr == io.EOF && avail > 0 {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

// uvarint decodes the uvarint at the front of b, the rest of the window. It
// accepts and rejects exactly what binary.ReadUvarint does, with the same
// errors. b is cut short of MaxVarintLen64 bytes only where the file ends.
func (d *binReader) uvarint(b []byte) (uint64, int, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, d.varintErr(k, len(b))
	}
	return v, k, nil
}

// varintErr is binary.ReadUvarint's error for a varint on which
// binary.Uvarint returned k <= 0, given the avail bytes the window held
// from its start.
func (d *binReader) varintErr(k, avail int) error {
	if k < 0 || avail >= binary.MaxVarintLen64 {
		// ReadUvarint gives up after MaxVarintLen64 continuation bytes,
		// where Uvarint would ask for one more.
		return errOverflow
	}
	return d.short(avail)
}

// corrupt wraps a decode failure; a bare io.EOF mid-record means the file
// was truncated before the end-of-trace sentinel.
func (d *binReader) corrupt(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%s: trace: truncated binary trace (%s): %v", d.path, what, err)
	}
	return fmt.Errorf("%s: trace: %s: %v", d.path, what, err)
}

// Read decodes records until out is full or the trace ends. The window
// cursor and the delta state stay in locals for the whole call and go back
// to d on return.
func (d *binReader) Read(out []Event) (int, error) {
	if d.done {
		return 0, io.EOF
	}
	file := int(d.last[0])
	off, tick, size, tm, du := d.last[1], d.last[2], d.last[3], d.last[4], d.last[5]
	buf, pos := d.buf[:d.end], d.pos
	n := 0
	var err error
decode:
	for n < len(out) {
		if len(buf)-pos < maxRecordLen {
			buf, pos = d.fill(pos, maxRecordLen)
		}
		var code uint64
		if pos < len(buf) && buf[pos] < 0x80 {
			code = uint64(buf[pos])
			pos++
		} else {
			c, k, e := d.uvarint(buf[pos:])
			if e != nil {
				err = d.corrupt("record code", e)
				break decode
			}
			code = c
			pos += k
		}
		switch {
		case code == 0:
			buf, pos = d.fill(pos, 1)
			switch {
			case pos < len(buf):
				err = fmt.Errorf("%s: trace: trailing data after end-of-trace sentinel", d.path)
			case d.rerr != io.EOF:
				err = fmt.Errorf("%s: trace: reading after end-of-trace sentinel: %w", d.path, d.rerr)
			default:
				d.done = true
				if n == 0 {
					err = io.EOF
				}
			}
			break decode
		case code == 1:
			l, k, e := d.uvarint(buf[pos:])
			if e != nil {
				err = d.corrupt("op length", e)
				break decode
			}
			pos += k
			if l == 0 || l > maxOpLen {
				err = fmt.Errorf("%s: trace: implausible op name length %d", d.path, l)
				break decode
			}
			if buf, pos = d.fill(pos, int(l)); len(buf)-pos < int(l) {
				err = d.corrupt("op name", d.short(len(buf)-pos))
				break decode
			}
			d.ops = append(d.ops, Op(buf[pos:pos+int(l)]))
			pos += int(l)
		default:
			idx := code - 2
			if idx >= uint64(len(d.ops)) {
				err = fmt.Errorf("%s: trace: event references undefined op code %d (dictionary has %d)", d.path, code, len(d.ops))
				break decode
			}
			var delta [6]int64
			for i := range delta {
				var u uint64
				if pos < len(buf) && buf[pos] < 0x80 {
					u = uint64(buf[pos])
					pos++
				} else {
					v, k := binary.Uvarint(buf[pos:])
					if k <= 0 {
						err = d.corrupt("event field", d.varintErr(k, len(buf)-pos))
						break decode
					}
					u = v
					pos += k
				}
				delta[i] = int64(u>>1) ^ -int64(u&1) // zigzag, as binary.ReadVarint
			}
			file = int(int64(file) + delta[0])
			off += delta[1]
			tick += delta[2]
			size += delta[3]
			tm += delta[4]
			du += delta[5]
			out[n] = Event{Rank: d.rank, File: file, Op: d.ops[idx], Offset: off, Tick: tick,
				Size: size, Time: units.Duration(tm), Duration: units.Duration(du)}
			n++
		}
	}
	d.pos = pos
	d.last = [6]int64{int64(file), off, tick, size, tm, du}
	return n, err
}

// Close returns the window to the pool; the reader is not used after.
func (d *binReader) Close() error {
	d.release()
	return d.f.Close()
}

func (d *binReader) release() {
	if d.win != nil {
		binWindows.Put(d.win)
		d.win, d.buf = nil, nil
	}
}
