package phase

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/sweep"
	"iophases/internal/trace"
)

// readerPath hides a Source's dynamic type, so trace.Each reads it through
// OpenRank in fixed-size chunks even when it wraps a Set's own Source.
func readerPath(src trace.Source) trace.Source { return struct{ trace.Source }{src} }

// identifyBoth runs the pipeline over the same set from both chunk
// producers — the resident slices Identify hands over whole, and the
// set's Source read through the reader path — and requires deeply
// identical phases and a byte-identical table.
func identifyBoth(t *testing.T, set *trace.Set) (*Result, *Result) {
	t.Helper()
	inMem := Identify(set)
	streamed, err := IdentifyStream(readerPath(set.Source()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inMem.Phases, streamed.Phases) {
		t.Fatalf("phases diverge:\n-- in-memory --\n%s\n-- streamed --\n%s",
			inMem.FormatTable(), streamed.FormatTable())
	}
	if inMem.FormatTable() != streamed.FormatTable() {
		t.Fatal("tables diverge")
	}
	return inMem, streamed
}

func TestIdentifyStreamMatchesIdentifyMadbench(t *testing.T) {
	identifyBoth(t, madbenchSet(16))
}

func TestIdentifyStreamMatchesIdentifyBTIO(t *testing.T) {
	// The family-split corpus: repetitions separated by solver ticks force
	// the pass-2 repetition rescan.
	res, _ := identifyBoth(t, btioSet(4, 40, 10612080))
	split := 0
	for _, ph := range res.Phases {
		if ph.FamilyID > 0 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("corpus lost its family-split phases; rescan untested")
	}
}

func TestIdentifyStreamFromDir(t *testing.T) {
	// Through the on-disk formats: save, reopen as a streaming source,
	// identify — still identical to the in-memory decomposition.
	for _, f := range []trace.Format{trace.FormatText, trace.FormatBinary} {
		set := btioSet(4, 10, 40*1024)
		want := Identify(set)
		dir := t.TempDir()
		if err := trace.WriteDir(set.Source(), dir, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		src, err := trace.OpenDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got, err := IdentifyStream(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !reflect.DeepEqual(want.Phases, got.Phases) {
			t.Fatalf("%s: phases diverge:\n%s\nvs\n%s", f, want.FormatTable(), got.FormatTable())
		}
	}
}

// TestIdentifyStreamParallelismInvariance is the reader-path counterpart
// of the Identify -j pin: both passes fan out, so the result must be deeply
// identical at any worker-pool width.
func TestIdentifyStreamParallelismInvariance(t *testing.T) {
	set := btioSet(9, 5, 40*1024)
	run := func() *Result {
		res, err := IdentifyStream(readerPath(set.Source()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := sweep.SetConcurrency(1)
	serial := run()
	sweep.SetConcurrency(8)
	wide := run()
	sweep.SetConcurrency(prev)
	if !reflect.DeepEqual(serial.Phases, wide.Phases) {
		t.Errorf("IdentifyStream at -j 1 and -j 8 differ:\n%s\nvs\n%s",
			serial.FormatTable(), wide.FormatTable())
	}
}

func TestIdentifyStreamSynth(t *testing.T) {
	// The synthetic generator used by benchmarks and the CI memory smoke:
	// per-round LAPs plus a family-split dump section. Streamed and
	// materialized extraction must agree here too.
	src, err := trace.Synth(trace.SynthSpec{NP: 4, EventsPerRank: 2000, RoundLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.ReadSet(src)
	if err != nil {
		t.Fatal(err)
	}
	want := Identify(set)
	got, err := IdentifyStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Phases, got.Phases) {
		t.Fatalf("phases diverge:\n%s\nvs\n%s", want.FormatTable(), got.FormatTable())
	}
	var hasFamily bool
	for _, ph := range got.Phases {
		if ph.FamilyID > 0 {
			hasFamily = true
		}
	}
	if !hasFamily {
		t.Fatal("synth trace must exercise the family-split rescan")
	}
}

func TestIdentifyStreamPropagatesErrors(t *testing.T) {
	// A corrupt rank file must surface as an error, not a partial result.
	set := madbenchSet(2)
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	corruptTextFile(t, dir, 1)
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IdentifyStream(src); err == nil {
		t.Fatal("corrupt rank accepted")
	} else if !strings.Contains(err.Error(), "trace.1.txt") {
		t.Fatalf("error lost file context: %v", err)
	}
}

// corruptTextFile appends a malformed row to rank p's text trace.
func corruptTextFile(t *testing.T, dir string, p int) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("trace.%d.txt", p))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a valid trace row\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
