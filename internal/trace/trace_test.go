package trace

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"iophases/internal/units"
)

func sampleEvents() []Event {
	return []Event{
		{Rank: 0, File: 1, Op: OpWriteAtAll, Offset: 0, Tick: 148, Size: 10612080,
			Time: units.FromSeconds(22.198392), Duration: units.FromSeconds(0.131034)},
		{Rank: 0, File: 1, Op: OpWriteAtAll, Offset: 265302, Tick: 269, Size: 10612080,
			Time: units.FromSeconds(39.101632), Duration: units.FromSeconds(0.159706)},
		{Rank: 0, File: 1, Op: OpReadAtAll, Offset: 0, Tick: 400, Size: 10612080,
			Time: units.FromSeconds(55.0), Duration: units.FromSeconds(0.13)},
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op                      Op
		write, read, data, coll bool
	}{
		{OpWriteAtAll, true, false, true, true},
		{OpReadAtAll, false, true, true, true},
		{OpWriteAt, true, false, true, false},
		{OpRead, false, true, true, false},
		{OpSetView, false, false, false, false},
		{OpOpen, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsWrite() != c.write || c.op.IsRead() != c.read ||
			c.op.IsData() != c.data || c.op.IsCollective() != c.coll {
			t.Fatalf("classification wrong for %s", c.op)
		}
	}
}

// parseText decodes one rank's text trace through the reader behind
// OpenDir.
func parseText(r io.Reader, rank int) ([]Event, error) {
	return ReadAll(newTextReader(io.NopCloser(r), rank, "trace.txt"))
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleEvents()
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := parseText(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestTextReaderInternsOps(t *testing.T) {
	// Each event's op must be the reader's one copy of the name, not a
	// substring of its own row, which would keep the whole row alive.
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	out, err := parseText(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := func(op Op) *byte { return unsafe.StringData(string(op)) }
	if out[0].Op != out[1].Op || data(out[0].Op) != data(out[1].Op) {
		t.Fatalf("two %s rows hold two strings", out[0].Op)
	}
	if data(out[2].Op) == data(out[0].Op) {
		t.Fatalf("%s and %s share one string", out[2].Op, out[0].Op)
	}
}

func TestTextRoundTripQuick(t *testing.T) {
	f := func(rank uint8, file uint8, off int64, tick uint16, size uint32, tms, dus uint32) bool {
		if off < 0 {
			off = -off
		}
		ev := Event{
			Rank: int(rank), File: int(file), Op: OpWriteAt, Offset: off,
			Tick: int64(tick), Size: int64(size),
			Time:     units.Duration(tms) * units.Microsecond,
			Duration: units.Duration(dus) * units.Microsecond,
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, []Event{ev}); err != nil {
			return false
		}
		out, err := parseText(&buf, int(rank))
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSecondsColumn pins the text time columns: below 2^53 ns every
// whole microsecond the writer prints with %.6f reads back exactly,
// finer digits round to the nearest microsecond, and NaN, infinities
// and times past that bound are refused.
func TestSecondsColumn(t *testing.T) {
	readBack := func(d int64) bool {
		us := units.Duration(d%(1<<53)) / units.Microsecond * units.Microsecond
		got, err := parseSeconds(fmt.Sprintf("%.6f", us.Seconds()))
		return err == nil && got == us
	}
	if err := quick.Check(readBack, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", ".", "-", "--1", "1.2.3", "NaN", "Inf", "-Inf", "1e300", "9007199.254741", "-9007199.254741"} {
		if d, err := parseSeconds(s); err == nil {
			t.Errorf("parseSeconds(%q) = %v, want an error", s, d)
		}
	}
	for s, want := range map[string]units.Duration{
		"-.5": -500 * units.Millisecond, "5.": 5 * units.Second,
		"+0.000001": units.Microsecond, "-0.000000": 0,
		"1e-3": units.Millisecond, "0.0000010": units.Microsecond,
		"0.0000004": 0, "0.0000016": 2 * units.Microsecond,
		"0.000001000000001": units.Microsecond,
		"9007199.254740":    9007199254740 * units.Microsecond,
	} {
		if d, err := parseSeconds(s); err != nil || d != want {
			t.Errorf("parseSeconds(%q) = %d, %v; want %d", s, d, err, want)
		}
	}
}

func TestParseRejectsBadLines(t *testing.T) {
	if _, err := parseText(bytes.NewBufferString("1 2 3\n"), 1); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := parseText(bytes.NewBufferString("a b c d e f g h\n"), 0); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

func TestSetSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	s := NewSet("example", "configA", 2)
	s.AddFile(FileMeta{ID: 1, Name: "/data", AccessType: "shared", PointerSet: "explicit",
		Collective: true, Blocking: true, HasView: true, ViewDisp: 0, ViewEtype: 40, ViewDesc: "vector"})
	for _, ev := range sampleEvents() {
		s.Record(ev)
	}
	s.Record(Event{Rank: 1, File: 1, Op: OpWriteAtAll, Offset: 0, Tick: 147, Size: 10612080})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "example" || got.Config != "configA" || got.NP != 2 {
		t.Fatalf("header %+v", got)
	}
	if len(got.Events[0]) != 3 || len(got.Events[1]) != 1 {
		t.Fatalf("event counts %d/%d", len(got.Events[0]), len(got.Events[1]))
	}
	if !reflect.DeepEqual(got.Files, s.Files) {
		t.Fatalf("file meta mismatch")
	}
	if !reflect.DeepEqual(got.Events[0], s.Events[0]) {
		t.Fatalf("rank 0 events mismatch")
	}
}

func TestTotalBytes(t *testing.T) {
	s := NewSet("x", "c", 1)
	for _, ev := range sampleEvents() {
		s.Record(ev)
	}
	w, r := s.TotalBytes()
	if w != 2*10612080 || r != 10612080 {
		t.Fatalf("w=%d r=%d", w, r)
	}
}

func TestDataEventsFiltersMetadata(t *testing.T) {
	s := NewSet("x", "c", 1)
	s.Record(Event{Rank: 0, File: 1, Op: OpOpen, Tick: 1})
	s.Record(Event{Rank: 0, File: 1, Op: OpSetView, Tick: 2})
	s.Record(Event{Rank: 0, File: 1, Op: OpWriteAt, Tick: 3, Size: 100})
	s.Record(Event{Rank: 0, File: 1, Op: OpClose, Tick: 4})
	data := s.DataEvents(0)
	if len(data) != 1 || data[0].Op != OpWriteAt {
		t.Fatalf("data events %+v", data)
	}
}

func TestFileMetaByID(t *testing.T) {
	s := NewSet("x", "c", 1)
	s.AddFile(FileMeta{ID: 3, Name: "/a"})
	s.AddFile(FileMeta{ID: 3, Name: "/b"}) // replace
	if m := s.FileMetaByID(3); m == nil || m.Name != "/b" {
		t.Fatalf("meta %+v", m)
	}
	if s.FileMetaByID(9) != nil {
		t.Fatal("ghost meta")
	}
	if len(s.Files) != 1 {
		t.Fatalf("duplicate meta entries: %d", len(s.Files))
	}
	// A meta.json may repeat an id or a rank's view: the first one wins,
	// and a file or rank without a recorded view reads as contiguous.
	s.Files[0].Views = []ViewInfo{{Rank: 0, Disp: 10, Etype: 40}, {Rank: 0, Disp: 99, Etype: 8}}
	s.Files = append(s.Files, FileMeta{ID: 3, Name: "/dup"})
	if m := s.FileMetaByID(3); m.Name != "/b" {
		t.Fatalf("duplicate id: got %q, want the first entry", m.Name)
	}
	if v := s.View(3, 0); v.Disp != 10 || v.Etype != 40 {
		t.Fatalf("duplicate view: got %+v, want the first", v)
	}
	for _, id := range []int{3, 9} {
		if v := s.View(id, 1); v != (ViewInfo{Rank: 1, Etype: 1}) {
			t.Fatalf("View(%d, 1) = %+v, want the contiguous default", id, v)
		}
	}
}
