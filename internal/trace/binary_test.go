package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"iophases/internal/units"
)

// encodeRank renders events into an in-memory binary trace.
func encodeRank(t *testing.T, p int, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := bw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFile writes raw to a temp file and drains it through the binary
// decoder, returning the events or the first error.
func decodeFile(t *testing.T, raw []byte, wantRank int) ([]Event, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newBinReader(f, wantRank, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	defer d.Close()
	return ReadAll(d)
}

func TestBinaryRoundTripAdversarial(t *testing.T) {
	// Negative offsets, zero sizes, max-int64 jumps in both directions —
	// the wraparound delta encoding must reproduce every value exactly.
	events := []Event{
		{Rank: 3, File: 0, Op: OpWriteAt, Offset: -1 << 40, Tick: 0, Size: 0},
		{Rank: 3, File: 7, Op: OpReadAt, Offset: math.MaxInt64, Tick: math.MaxInt64, Size: math.MaxInt64,
			Time: units.Duration(math.MaxInt64), Duration: units.Duration(math.MaxInt64)},
		{Rank: 3, File: -2, Op: OpWriteAt, Offset: math.MinInt64, Tick: -5, Size: 1,
			Time: units.Duration(math.MinInt64), Duration: 0},
		{Rank: 3, File: 0, Op: OpWrite, Offset: 0, Tick: 0, Size: 0},
	}
	got, err := decodeFile(t, encodeRank(t, 3, events), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", events, got)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(file int16, off, tick, size int64, tm, du int64, op uint8) bool {
		ops := []Op{OpWriteAt, OpReadAt, OpWriteAtAll, OpReadAtAll, OpSetView}
		ev := Event{
			Rank: 5, File: int(file), Op: ops[int(op)%len(ops)],
			Offset: off, Tick: tick, Size: size,
			Time: units.Duration(tm), Duration: units.Duration(du),
		}
		got, err := decodeFile(t, encodeRank(t, 5, []Event{ev, ev}), 5)
		return err == nil && len(got) == 2 && got[0] == ev && got[1] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyRank(t *testing.T) {
	got, err := decodeFile(t, encodeRank(t, 0, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("events %+v, want none", got)
	}
}

func TestBinaryWriterRejectsWrongRank(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinaryWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(Event{Rank: 3, Op: OpWriteAt}); err == nil {
		t.Fatal("wrong-rank event accepted")
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	good := encodeRank(t, 1, []Event{
		{Rank: 1, File: 0, Op: OpWriteAt, Offset: 100, Tick: 1, Size: 64},
		{Rank: 1, File: 0, Op: OpReadAt, Offset: 200, Tick: 2, Size: 64},
	})

	t.Run("bad magic", func(t *testing.T) {
		raw := append([]byte{}, good...)
		raw[0] = 'X'
		if _, err := decodeFile(t, raw, 1); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := decodeFile(t, good[:4], 1); err == nil {
			t.Fatal("truncated header accepted")
		}
	})
	t.Run("truncated mid-record", func(t *testing.T) {
		// Every proper prefix that cuts a record must error, never
		// silently return short data.
		for cut := len(binMagic) + 1; cut < len(good)-1; cut++ {
			if _, err := decodeFile(t, good[:cut], 1); err == nil {
				t.Fatalf("cut at %d accepted", cut)
			} else if !strings.Contains(err.Error(), "trace:") {
				t.Fatalf("cut at %d: unwrapped error %v", cut, err)
			}
		}
	})
	t.Run("trailing data", func(t *testing.T) {
		raw := append(append([]byte{}, good...), 0x7)
		if _, err := decodeFile(t, raw, 1); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("varint overflow", func(t *testing.T) {
		raw := append([]byte{}, binMagic...)
		raw = binary.AppendUvarint(raw, 1)
		// 11 continuation bytes: overflows ReadUvarint.
		for i := 0; i < 11; i++ {
			raw = append(raw, 0xFF)
		}
		if _, err := decodeFile(t, raw, 1); err == nil {
			t.Fatal("overflowing varint accepted")
		}
	})
	t.Run("undefined op code", func(t *testing.T) {
		raw := append([]byte{}, binMagic...)
		raw = binary.AppendUvarint(raw, 1)
		raw = binary.AppendUvarint(raw, 9) // event code with empty dictionary
		if _, err := decodeFile(t, raw, 1); err == nil || !strings.Contains(err.Error(), "undefined op code") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("implausible op length", func(t *testing.T) {
		raw := append([]byte{}, binMagic...)
		raw = binary.AppendUvarint(raw, 1)
		raw = binary.AppendUvarint(raw, 1)          // op-define
		raw = binary.AppendUvarint(raw, maxOpLen+1) // absurd name length
		if _, err := decodeFile(t, raw, 1); err == nil || !strings.Contains(err.Error(), "op name length") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("read error after sentinel", func(t *testing.T) {
		// The file reads to its last byte, the sentinel, then the read
		// fails: that is the read error, not trailing data.
		boom := errors.New("disk on fire")
		r := io.MultiReader(bytes.NewReader(good), iotest.ErrReader(boom))
		d, err := newBinReader(io.NopCloser(r), 1, "rank1.bin")
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadAll(d)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "rank1.bin") ||
			strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("reader stalls", func(t *testing.T) {
		// Past the header the reader returns neither bytes nor an error
		// forever: the decoder gives up instead of spinning.
		r := io.MultiReader(bytes.NewReader(good[:len(good)/2]), stalledReader{})
		d, err := newBinReader(io.NopCloser(r), 1, "rank1.bin")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadAll(d); err == nil || !strings.Contains(err.Error(), io.ErrNoProgress.Error()) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("header rank mismatch", func(t *testing.T) {
		if _, err := decodeFile(t, good, 2); err == nil || !strings.Contains(err.Error(), "does not match rank 2") {
			t.Fatalf("err = %v", err)
		}
	})
}

type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// decodeBytes drains raw through the binary decoder reading via wrap.
func decodeBytes(raw []byte, wrap func(io.Reader) io.Reader) ([]Event, error) {
	d, err := newBinReader(io.NopCloser(wrap(bytes.NewReader(raw))), 0, "trace.0.bin")
	if err != nil {
		return nil, err
	}
	return ReadAll(d)
}

func plainReader(r io.Reader) io.Reader { return r }

// readerWraps are the read patterns the window must not depend on: whole
// windows, one byte per read, and half of what was asked for.
var readerWraps = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", plainReader},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

func TestBinaryWindowRefills(t *testing.T) {
	events := synthRankEvents(t, 30_000)
	raw := encodeRank(t, 0, events)
	if len(raw) <= 2*binWindow {
		t.Fatalf("trace is %d bytes, want more than two %d-byte windows", len(raw), binWindow)
	}
	for _, rw := range readerWraps {
		got, err := decodeBytes(raw, rw.wrap)
		if err != nil {
			t.Fatalf("%s: %v", rw.name, err)
		}
		if !slices.Equal(got, events) {
			t.Fatalf("%s: decoded events differ from the encoded ones", rw.name)
		}
	}
}

func TestBinaryTruncatedAtRefill(t *testing.T) {
	raw := encodeRank(t, 0, synthRankEvents(t, 30_000))
	buf := make([]Event, eachChunk)
	// Refill k starts at most k·maxRecordLen bytes before k·binWindow;
	// cut every byte of the records around the first two.
	for k := 1; k <= 2; k++ {
		for cut := k*binWindow - (k+1)*maxRecordLen; cut <= k*binWindow+maxRecordLen; cut++ {
			d, err := newBinReader(io.NopCloser(bytes.NewReader(raw[:cut])), 0, "trace.0.bin")
			for err == nil {
				_, err = d.Read(buf)
			}
			if !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("cut at %d: err = %v", cut, err)
			}
		}
	}
}

func TestBinaryOpDefineAcrossRefill(t *testing.T) {
	// An op-define record, whose 200-byte name is longer than any event
	// record, placed at every offset from well inside the first window
	// to past its end.
	long := Op(strings.Repeat("MPI_File_write_at_all_begin_", 8)[:200])
	base := synthRankEvents(t, 8_000)
	start := func(k int) int { return len(encodeRank(t, 0, base[:k])) - 1 } // less the sentinel
	placed := 0
	for k := sort.Search(len(base), func(k int) bool { return start(k) >= binWindow-300 }); ; k++ {
		at := start(k)
		if at > binWindow+10 {
			break
		}
		events := append(slices.Clone(base[:k]), Event{Rank: 0, Op: long, Offset: 7, Size: 9})
		events = append(events, base[k:k+100]...)
		raw := encodeRank(t, 0, events)
		for _, rw := range readerWraps {
			got, err := decodeBytes(raw, rw.wrap)
			if err != nil {
				t.Fatalf("define at byte %d, %s: %v", at, rw.name, err)
			}
			if !slices.Equal(got, events) {
				t.Fatalf("define at byte %d, %s: decoded events differ", at, rw.name)
			}
		}
		placed++
	}
	if placed < 20 {
		t.Fatalf("only %d placements near the window edge", placed)
	}
}

// adversarialSet exercises save/load with hostile values and an empty rank.
func adversarialSet() *Set {
	s := NewSet("adv", "test", 3)
	s.AddFile(FileMeta{ID: 0, Name: "/adv", AccessType: "shared", PointerSet: "explicit", Blocking: true})
	s.Record(Event{Rank: 0, File: 0, Op: OpWriteAt, Offset: -(1 << 50), Tick: 1, Size: 0,
		Time: 5 * units.Microsecond, Duration: units.Microsecond})
	s.Record(Event{Rank: 0, File: 0, Op: OpReadAt, Offset: 1 << 55, Tick: 2, Size: 1 << 45})
	// Rank 1 stays empty; rank 2 has one plain event.
	s.Record(Event{Rank: 2, File: 0, Op: OpWrite, Offset: 0, Tick: 1, Size: 7})
	return s
}

func TestSaveLoadAdversarialBothFormats(t *testing.T) {
	want := adversarialSet()
	for _, f := range []Format{FormatText, FormatBinary} {
		dir := filepath.Join(t.TempDir(), f.String())
		if err := WriteDir(want.Source(), dir, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for p := 0; p < want.NP; p++ {
			w := want.Events[p]
			g := got.Events[p]
			if len(w) != len(g) {
				t.Fatalf("%s rank %d: %d events, want %d", f, p, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("%s rank %d event %d: %+v != %+v", f, p, i, g[i], w[i])
				}
			}
		}
	}
}

func TestConvertDirRoundTrip(t *testing.T) {
	want := adversarialSet()
	text := filepath.Join(t.TempDir(), "text")
	if err := want.Save(text); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bin")
	if err := ConvertDir(text, bin, FormatBinary); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(t.TempDir(), "back")
	if err := ConvertDir(bin, back, FormatText); err != nil {
		t.Fatal(err)
	}
	a, err := Load(text)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) || !reflect.DeepEqual(a.Files, b.Files) {
		t.Fatal("text -> binary -> text round trip diverged")
	}
}

func TestLoadRejectsRankMismatch(t *testing.T) {
	dir := t.TempDir()
	s := NewSet("x", "c", 1)
	s.Record(Event{Rank: 0, File: 0, Op: OpWriteAt, Tick: 1, Size: 10})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Corrupt rank 0's file with a row claiming IdP 5.
	path := filepath.Join(dir, "trace.0.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(raw), "0    0", "5    0", 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil {
		t.Fatal("mismatched IdP accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "does not match rank 0") {
		t.Fatalf("err = %v", err)
	}
}

func TestScannerTooLongHasContext(t *testing.T) {
	long := strings.Repeat("x", maxLineLen+10)
	_, err := parseText(strings.NewReader("IdP header\n"+long+"\n"), 0)
	if err == nil {
		t.Fatal("overlong line accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") || !strings.Contains(msg, "exceeds") {
		t.Fatalf("err = %v", err)
	}
}
