package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/iotest"
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
// events.

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
