package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"iophases/internal/units"
)

// oracleBinReader is binReader's test oracle: the IOBIN1 decoder stated
// one byte at a time, every varint read through binary.ReadUvarint and
// binary.ReadVarint over a bufio.Reader. FuzzBinReader requires the
// windowed decoder to return the same events and the same errors on every
// input.
type oracleBinReader struct {
	r    *bufio.Reader
	ops  []Op
	prev Event
	rank int
	path string
	done bool
}

func newOracleBinReader(r io.Reader, wantRank int, path string) (*oracleBinReader, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%s: trace: bad binary header: %v", path, err)
	}
	if string(magic[:]) != string(binMagic) {
		return nil, fmt.Errorf("%s: trace: bad magic %q (want %q)", path, magic[:], binMagic)
	}
	rank, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%s: trace: reading rank: %v", path, err)
	}
	if rank > 1<<30 {
		return nil, fmt.Errorf("%s: trace: implausible rank %d", path, rank)
	}
	if int(rank) != wantRank {
		return nil, fmt.Errorf("%s: trace: header rank %d does not match rank %d of this trace file", path, rank, wantRank)
	}
	return &oracleBinReader{r: br, rank: int(rank), path: path}, nil
}

func (d *oracleBinReader) corrupt(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%s: trace: truncated binary trace (%s): %v", d.path, what, err)
	}
	return fmt.Errorf("%s: trace: %s: %v", d.path, what, err)
}

func (d *oracleBinReader) Read(buf []Event) (int, error) {
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

func (d *oracleBinReader) Close() error { return nil }
