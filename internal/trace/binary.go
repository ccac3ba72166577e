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
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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

// binReader decodes the binary format as a streaming Reader.
type binReader struct {
	f    io.Closer
	r    *bufio.Reader
	ops  []Op
	prev Event
	rank int
	path string
	done bool
}

// newBinReader validates the header and returns a decoder for the trace
// of rank wantRank.
func newBinReader(rc io.ReadCloser, wantRank int, path string) (*binReader, error) {
	r := bufio.NewReaderSize(rc, 64*1024)
	var magic [6]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%s: trace: bad binary header: %v", path, err)
	}
	if string(magic[:]) != string(binMagic) {
		return nil, fmt.Errorf("%s: trace: bad magic %q (want %q)", path, magic[:], binMagic)
	}
	rank, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%s: trace: reading rank: %v", path, err)
	}
	if rank > 1<<30 {
		return nil, fmt.Errorf("%s: trace: implausible rank %d", path, rank)
	}
	if int(rank) != wantRank {
		return nil, fmt.Errorf("%s: trace: header rank %d does not match rank %d of this trace file", path, rank, wantRank)
	}
	return &binReader{f: rc, r: r, rank: int(rank), path: path}, nil
}

// corrupt wraps a decode failure; a bare io.EOF mid-record means the file
// was truncated before the end-of-trace sentinel.
func (d *binReader) corrupt(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%s: trace: truncated binary trace (%s): %v", d.path, what, err)
	}
	return fmt.Errorf("%s: trace: %s: %v", d.path, what, err)
}

func (d *binReader) Read(buf []Event) (int, error) {
	if d.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) {
		code, err := binary.ReadUvarint(d.r)
		if err != nil {
			return n, d.corrupt("record code", err)
		}
		switch {
		case code == 0:
			if _, err := d.r.ReadByte(); err != io.EOF {
				return n, fmt.Errorf("%s: trace: trailing data after end-of-trace sentinel", d.path)
			}
			d.done = true
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		case code == 1:
			l, err := binary.ReadUvarint(d.r)
			if err != nil {
				return n, d.corrupt("op length", err)
			}
			if l == 0 || l > maxOpLen {
				return n, fmt.Errorf("%s: trace: implausible op name length %d", d.path, l)
			}
			name := make([]byte, l)
			if _, err := io.ReadFull(d.r, name); err != nil {
				return n, d.corrupt("op name", err)
			}
			d.ops = append(d.ops, Op(name))
		default:
			idx := code - 2
			if idx >= uint64(len(d.ops)) {
				return n, fmt.Errorf("%s: trace: event references undefined op code %d (dictionary has %d)", d.path, code, len(d.ops))
			}
			ev := Event{Rank: d.rank, Op: d.ops[idx]}
			var deltas [6]int64
			for i := range deltas {
				v, err := binary.ReadVarint(d.r)
				if err != nil {
					return n, d.corrupt("event field", err)
				}
				deltas[i] = v
			}
			ev.File = int(int64(d.prev.File) + deltas[0])
			ev.Offset = d.prev.Offset + deltas[1]
			ev.Tick = d.prev.Tick + deltas[2]
			ev.Size = d.prev.Size + deltas[3]
			ev.Time = d.prev.Time + units.Duration(deltas[4])
			ev.Duration = d.prev.Duration + units.Duration(deltas[5])
			d.prev = ev
			buf[n] = ev
			n++
		}
	}
	return n, nil
}

func (d *binReader) Close() error { return d.f.Close() }
