package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"

	"iophases/internal/units"
)

// The decoders behind OpenDir read untrusted files. The seed corpora
// under testdata/fuzz/ are the per-rank files of testdata/writers, plus
// FuzzBinReader/window-edge, a 70 KB trace with an op-define record
// across the end of the decoder's first 64 KiB window; run a target
// with, e.g.,
//
//	go test -run '^$' -fuzz FuzzTextReader -fuzztime 10s ./internal/trace
//
// Both targets check the same two properties: no input panics, and an
// input that decodes cleanly re-encodes and re-decodes to the same
// events. FuzzTraceFormats runs the other way, from a set through both
// writers and back.

func FuzzTextReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rank int) {
		evs, err := ReadAll(newTextReader(io.NopCloser(bytes.NewReader(data)), rank, "fuzz.txt"))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, evs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(newTextReader(io.NopCloser(&buf), rank, "fuzz.txt"))
		if err != nil {
			t.Fatalf("re-decoding:\n%s\nerror: %v", buf.Bytes(), err)
		}
		if !slices.Equal(evs, again) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", evs, again)
		}
	})
}

// FuzzBinReader also decodes every input with the byte-at-a-time oracle
// (binoracle_test.go) and through iotest.OneByteReader, which moves every
// window refill: all three must return the same events or the same error.
func FuzzBinReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rank int) {
		evs, msg := drainBin(newBinReader(io.NopCloser(bytes.NewReader(data)), rank, "fuzz.bin"))
		want, wantMsg := drainBin(newOracleBinReader(bytes.NewReader(data), rank, "fuzz.bin"))
		one, oneMsg := drainBin(newBinReader(io.NopCloser(iotest.OneByteReader(bytes.NewReader(data))), rank, "fuzz.bin"))
		if msg != wantMsg || oneMsg != wantMsg {
			t.Fatalf("errors differ:\nwindow   %q\noracle   %q\none-byte %q", msg, wantMsg, oneMsg)
		}
		if !slices.Equal(evs, want) || !slices.Equal(one, want) {
			t.Fatalf("events differ:\nwindow   %+v\noracle   %+v\none-byte %+v", evs, want, one)
		}
		if msg != "" {
			return
		}
		var buf bytes.Buffer
		bw, err := NewBinaryWriter(&buf, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := bw.Write(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		again, msg := drainBin(newBinReader(io.NopCloser(&buf), rank, "fuzz.bin"))
		if msg != "" {
			t.Fatalf("re-decoding: %s", msg)
		}
		if !slices.Equal(evs, again) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", evs, again)
		}
	})
}

// drainBin reads a decoder to the end, returning its events, or the text of
// the first error it or its constructor returned.
func drainBin[R Reader](r R, err error) ([]Event, string) {
	if err != nil {
		return nil, err.Error()
	}
	evs, err := ReadAll(r)
	if err != nil {
		return nil, err.Error()
	}
	return evs, ""
}

// FuzzTraceFormats is differential testing of the two encodings: the set
// formatSet decodes from the fuzz bytes is written with WriteDir as text
// and as IOBIN1, and each directory must read back through OpenDir and
// ReadSet to the input, events and Meta alike. Its seeds under
// testdata/fuzz/FuzzTraceFormats are a two-rank MADBench2-like trace, a
// rank whose op changes mid-stream, max-int64 deltas, and times at the
// text format's bound.
func FuzzTraceFormats(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := formatSet(data)
		want := in.Source().Meta()
		root := t.TempDir()
		for _, format := range []Format{FormatText, FormatBinary} {
			dir := filepath.Join(root, format.String())
			if err := WriteDir(in.Source(), dir, format); err != nil {
				t.Fatalf("%s: writing: %v", format, err)
			}
			src, err := OpenDir(dir)
			if err != nil {
				t.Fatalf("%s: opening: %v", format, err)
			}
			got, err := ReadSet(src)
			if err != nil {
				t.Fatalf("%s: reading: %v", format, err)
			}
			if m := got.Source().Meta(); !reflect.DeepEqual(m, want) {
				t.Fatalf("%s: meta\n%+v\nwant\n%+v", format, m, want)
			}
			for p := range in.Events {
				if !slices.Equal(got.Events[p], in.Events[p]) {
					t.Fatalf("%s rank %d: events\n%+v\nwant\n%+v", format, p, got.Events[p], in.Events[p])
				}
			}
		}
	})
}

// formatOps are the ops a decoded event can carry: every Op constant.
var formatOps = []Op{OpOpen, OpClose, OpSetView, OpWriteAt, OpWriteAtAll, OpReadAt,
	OpReadAtAll, OpWrite, OpWriteAll, OpRead, OpReadAll, OpIWriteAt, OpIReadAt}

// formatInput decodes fuzz bytes from the front; reads past the end yield
// zero, so every input decodes to some set.
type formatInput []byte

func (in *formatInput) byte() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// varint reads a zigzag varint, as IOBIN1 stores its deltas. A malformed
// one reads as 0 and ends the input.
func (in *formatInput) varint() int64 {
	v, n := binary.Varint(*in)
	if n <= 0 {
		*in = nil
		return 0
	}
	*in = (*in)[n:]
	return v
}

// str reads a length byte and up to 15 characters of an alphabet for file
// names and view descriptions.
func (in *formatInput) str() string {
	const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789/._-(),"
	b := make([]byte, in.byte()%16)
	for i := range b {
		b[i] = chars[in.byte()%len(chars)]
	}
	return string(b)
}

// micros adds a delta to a time in microseconds and wraps the sum into the
// text format's range, ±maxTextMicros.
func micros(us, delta int64) int64 { return (us + delta) % (maxTextMicros + 1) }

// formatSet decodes a trace set: the app and config names, np (1–3), up to
// three files' metadata with up to three views each, then each rank's
// events (up to 64). An event is an op byte and the deltas of its File,
// Offset, Tick, Size, Time and Duration against the rank's previous
// event, as IOBIN1 stores them; times are whole microseconds.
func formatSet(data []byte) *Set {
	in := formatInput(data)
	app := in.str()
	config := in.str()
	s := NewSet(app, config, 1+in.byte()%3)
	for i := in.byte() % 4; i > 0; i-- {
		flags := in.byte()
		m := FileMeta{
			ID:         int(in.varint()),
			Name:       in.str(),
			AccessType: [2]string{"shared", "unique"}[flags&1],
			PointerSet: [3]string{"explicit", "individual", "shared"}[flags>>1&3%3],
			Collective: flags&8 != 0,
			Blocking:   flags&16 != 0,
			HasView:    flags&32 != 0,
			ViewDisp:   in.varint(),
			ViewEtype:  in.varint(),
			ViewDesc:   in.str(),
		}
		for j := in.byte() % 4; j > 0; j-- {
			m.Views = append(m.Views, ViewInfo{Rank: int(in.varint()), Disp: in.varint(),
				Etype: in.varint(), Block: in.varint(), Stride: in.varint(), Phase: in.varint()})
		}
		s.Files = append(s.Files, m)
	}
	for p := range s.Events {
		var prev Event
		var timeUs, durUs int64
		for i := in.byte() % 65; i > 0; i-- {
			ev := Event{Rank: p, Op: formatOps[in.byte()%len(formatOps)]}
			ev.File = prev.File + int(in.varint())
			ev.Offset = prev.Offset + in.varint()
			ev.Tick = prev.Tick + in.varint()
			ev.Size = prev.Size + in.varint()
			timeUs = micros(timeUs, in.varint())
			durUs = micros(durUs, in.varint())
			ev.Time = units.Duration(timeUs) * units.Microsecond
			ev.Duration = units.Duration(durUs) * units.Microsecond
			s.Record(ev)
			prev = ev
		}
	}
	return s
}
