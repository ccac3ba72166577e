package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// The decoders behind OpenDir read untrusted files. The seed corpora
// under testdata/fuzz/ are the per-rank files of testdata/writers; run
// a target with, e.g.,
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

func FuzzBinReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rank int) {
		d, err := newBinReader(io.NopCloser(bytes.NewReader(data)), rank, "fuzz.bin")
		if err != nil {
			return
		}
		evs, err := ReadAll(d)
		if err != nil {
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
		d, err = newBinReader(io.NopCloser(&buf), rank, "fuzz.bin")
		if err != nil {
			t.Fatalf("re-decoding the header: %v", err)
		}
		again, err := ReadAll(d)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if !slices.Equal(evs, again) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", evs, again)
		}
	})
}
