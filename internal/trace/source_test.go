package trace

import (
	"os"
	"reflect"
	"testing"
)

func TestOpenDirMixedFormats(t *testing.T) {
	// Rank 0 text-only, rank 1 binary-only: per-rank auto-detection.
	dir := t.TempDir()
	s := NewSet("mixed", "c", 2)
	s.Record(Event{Rank: 0, File: 0, Op: OpWriteAt, Tick: 1, Size: 10})
	s.Record(Event{Rank: 1, File: 0, Op: OpReadAt, Tick: 1, Size: 20})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(s.Source(), dir, FormatBinary); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{rankPath(dir, 0, FormatBinary), rankPath(dir, 1, FormatText)} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("events mismatch:\ngot  %+v\nwant %+v", got.Events, s.Events)
	}
}

func TestOpenDirMissingRankFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSet("x", "c", 2)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(rankPath(dir, 1, FormatText)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("missing rank file accepted")
	}
}

func TestSourceRestartable(t *testing.T) {
	// The Source contract: OpenRank restarts the stream every call — the
	// property phase identification's fallback re-read depends on.
	dir := t.TempDir()
	s := adversarialSet()
	if err := WriteDir(s.Source(), dir, FormatBinary); err != nil {
		t.Fatal(err)
	}
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		r, err := src.OpenRank(0)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs, s.Events[0]) {
			t.Fatalf("pass %d diverged", pass)
		}
	}
}

func TestSetSourceRoundTrip(t *testing.T) {
	s := adversarialSet()
	got, err := ReadSet(s.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatal("Set -> Source -> Set diverged")
	}
}

func TestSynthDeterministicAndRestartable(t *testing.T) {
	spec := SynthSpec{NP: 2, EventsPerRank: 5000, RoundLen: 64}
	a, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		ra, _ := a.OpenRank(p)
		rb, _ := b.OpenRank(p)
		ea, err := ReadAll(ra)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := ReadAll(rb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("rank %d: identical specs diverged", p)
		}
		if len(ea) != 5000 {
			t.Fatalf("rank %d: %d events, want 5000", p, len(ea))
		}
		// Ticks must be strictly increasing (trace order).
		for i := 1; i < len(ea); i++ {
			if ea[i].Tick <= ea[i-1].Tick {
				t.Fatalf("rank %d: tick not increasing at %d: %d -> %d",
					p, i, ea[i-1].Tick, ea[i].Tick)
			}
		}
	}
	if _, err := a.OpenRank(2); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestSynthValidation(t *testing.T) {
	if _, err := Synth(SynthSpec{NP: 0, EventsPerRank: 10}); err == nil {
		t.Fatal("NP=0 accepted")
	}
	if _, err := Synth(SynthSpec{NP: 1, EventsPerRank: 0}); err == nil {
		t.Fatal("EventsPerRank=0 accepted")
	}
}

func TestAddFileReplacementVisibleToView(t *testing.T) {
	s := NewSet("x", "c", 1)
	s.AddFile(FileMeta{ID: 0, Views: []ViewInfo{{Rank: 0, Disp: 1, Etype: 1}}})
	if got := s.View(0, 0).Disp; got != 1 {
		t.Fatalf("disp = %d", got)
	}
	// Replacing the file after a lookup must show in the next one.
	s.AddFile(FileMeta{ID: 0, Views: []ViewInfo{{Rank: 0, Disp: 2, Etype: 1}}})
	if got := s.View(0, 0).Disp; got != 2 {
		t.Fatalf("stale view: disp = %d, want 2", got)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	events := synthRankEvents(b, 100_000)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw, err := NewBinaryWriter(discard{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if err := bw.Write(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryDecode drains one IOBIN1 rank file through trace.Each, the
// chunked loop extraction reads every source with; MB/s is file bytes.
func BenchmarkBinaryDecode(b *testing.B) {
	events := synthRankEvents(b, 100_000)
	set := NewSet("bench", "c", 1)
	set.Events[0] = events
	dir := b.TempDir()
	if err := WriteDir(set.Source(), dir, FormatBinary); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(rankPath(dir, 0, FormatBinary))
	if err != nil {
		b.Fatal(err)
	}
	src, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		err := Each(src, 0, func(evs []Event) error {
			got += len(evs)
			return nil
		})
		if err != nil || got != len(events) {
			b.Fatalf("decode: %v (%d events)", err, got)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func synthRankEvents(tb testing.TB, n int64) []Event {
	src, err := Synth(SynthSpec{NP: 1, EventsPerRank: n})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := src.OpenRank(0)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	events, err := ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return events
}
