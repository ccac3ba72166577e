package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// readerPath hides a Source's dynamic type, so Each reads it through
// OpenRank in fixed-size chunks even when it wraps a Set's own Source.
func readerPath(src Source) Source { return struct{ Source }{src} }

// eachSet is a resident trace whose ranks span several Each chunks.
func eachSet(t *testing.T) *Set {
	t.Helper()
	src, err := Synth(SynthSpec{NP: 3, EventsPerRank: 2*eachChunk + 100, RoundLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ReadSet(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// collect concatenates the chunks Each passes for rank p, counting the
// calls and noting where the first chunk lives.
func collect(t *testing.T, src Source, p int) (events []Event, calls int, first *Event) {
	t.Helper()
	err := Each(src, p, func(evs []Event) error {
		if len(evs) == 0 {
			t.Fatalf("rank %d: empty chunk", p)
		}
		if calls == 0 {
			first = &evs[0]
		}
		calls++
		events = append(events, evs...)
		return nil
	})
	if err != nil {
		t.Fatalf("rank %d: %v", p, err)
	}
	return events, calls, first
}

func TestEachSliceAndReaderPathsAgree(t *testing.T) {
	set := eachSet(t)
	for p := 0; p < set.NP; p++ {
		fromSlice, calls, first := collect(t, set.Source(), p)
		if calls != 1 || first != &set.Events[p][0] {
			t.Fatalf("rank %d: slice path made %d calls or copied the events", p, calls)
		}
		fromReader, calls, _ := collect(t, readerPath(set.Source()), p)
		if calls != 3 {
			t.Fatalf("rank %d: reader path made %d calls, want 3", p, calls)
		}
		if !reflect.DeepEqual(fromSlice, set.Events[p]) || !reflect.DeepEqual(fromReader, set.Events[p]) {
			t.Fatalf("rank %d: paths disagree with the resident events", p)
		}
	}
}

func TestEachEmptyRankCallsNothing(t *testing.T) {
	set := NewSet("x", "c", 1)
	for _, src := range []Source{set.Source(), readerPath(set.Source())} {
		if _, calls, _ := collect(t, src, 0); calls != 0 {
			t.Fatalf("%T: %d calls for an empty rank", src, calls)
		}
	}
}

func TestEachStopsOnCallbackError(t *testing.T) {
	set := eachSet(t)
	stop := errors.New("stop")
	for _, src := range []Source{set.Source(), readerPath(set.Source())} {
		calls := 0
		err := Each(src, 0, func([]Event) error {
			calls++
			return stop
		})
		if !errors.Is(err, stop) || calls != 1 {
			t.Fatalf("%T: err %v after %d calls, want stop after 1", src, err, calls)
		}
	}
}

func TestEachCorruptTextRankNamesFile(t *testing.T) {
	set := eachSet(t)
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(rankPath(dir, 1, FormatText), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a valid trace row\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = Each(src, 1, func([]Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "trace.1.txt") {
		t.Fatalf("corrupt rank: err %v, want one naming trace.1.txt", err)
	}
}

func TestEachRankOutOfRange(t *testing.T) {
	set := eachSet(t)
	for _, src := range []Source{set.Source(), readerPath(set.Source())} {
		for _, p := range []int{-1, set.NP} {
			err := Each(src, p, func([]Event) error {
				t.Fatalf("%T: rank %d passed events", src, p)
				return nil
			})
			if err == nil {
				t.Fatalf("%T: rank %d accepted", src, p)
			}
		}
	}
}

func TestOpenDirRejectsBadNP(t *testing.T) {
	for _, np := range []int{-1, 0, 100000000000} {
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			dir := t.TempDir()
			meta := fmt.Sprintf(`{"app":"x","config":"c","np":%d}`, np)
			if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDir(dir)
			if err == nil {
				t.Fatal("accepted a directory without rank files")
			}
			if np < 1 && !strings.Contains(err.Error(), "meta.json") {
				t.Fatalf("error does not name meta.json: %v", err)
			}
		})
	}
}

// TestEachReusesReadBuffers: a read of a rank file takes Each's chunk
// buffer and the reader's line buffer or byte window from pools, so once
// warmed, reading a short rank allocates a small fraction of the 147 KB
// chunk buffer alone.
func TestEachReusesReadBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	s := NewSet("short", "c", 1)
	for i := int64(0); i < 16; i++ {
		s.Record(Event{Rank: 0, Op: OpWriteAt, Tick: i + 1, Offset: 10 * i, Size: 10})
	}
	for _, f := range []Format{FormatText, FormatBinary} {
		dir := t.TempDir()
		if err := WriteDir(s.Source(), dir, f); err != nil {
			t.Fatal(err)
		}
		src, err := OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			if err := Each(src, 0, func([]Event) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		read()
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 16<<10 {
			t.Errorf("format %v: a warmed read of a %d-event rank allocates %d bytes", f, len(s.Events[0]), per)
		}
	}
}
