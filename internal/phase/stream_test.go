package phase

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/pattern"
	"iophases/internal/sweep"
	"iophases/internal/trace"
	"iophases/internal/units"
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
	// The family-split corpus: repetitions separated by solver ticks,
	// first from the second, so the Miner times every repetition and no
	// rank is read twice.
	before := cRescans.Value()
	res, _ := identifyBoth(t, btioSet(4, 40, 10612080))
	if n := cRescans.Value() - before; n != 0 {
		t.Fatalf("%d ranks re-read; the Miner should have timed every split repetition", n)
	}
	split := 0
	for _, ph := range res.Phases {
		if ph.FamilyID > 0 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("corpus lost its family-split phases; recorded repetition timing untested")
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
// of the Identify -j pin: mining and the fallback re-read fan out, so the
// result must be deeply identical at any worker-pool width.
func TestIdentifyStreamParallelismInvariance(t *testing.T) {
	fallback, _ := fallbackSet()
	for _, set := range []*trace.Set{btioSet(9, 5, 40*1024), fallback} {
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
			t.Errorf("%s: IdentifyStream at -j 1 and -j 8 differ:\n%s\nvs\n%s",
				set.App, serial.FormatTable(), wide.FormatTable())
		}
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
	before := cRescans.Value()
	want := Identify(set)
	got, err := IdentifyStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := cRescans.Value() - before; n != 0 {
		t.Fatalf("%d ranks re-read; the Miner should have timed every split repetition", n)
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
		t.Fatal("synth trace must exercise the family split; recorded repetition timing untested")
	}
}

// fallbackSet builds four ranks whose LAPs of 12 repetitions all split
// into phase families: one 1 KiB write a repetition and a 2 KiB
// write-read pair on every rank, and one 512 B read on rank 2 alone. Each
// LAP's first tick jump comes before its first, its eighth or no
// repetition:
//
//	rank 0: 1 KiB and 2 KiB contiguous                 re-read
//	rank 1: 1 KiB and 2 KiB jump after eight           re-read
//	rank 2: 512 B jumps after eight, 1 KiB at once, 2 KiB contiguous:
//	        one recorded and two re-read LAPs, the 512 B one mined
//	        first but grouped last
//	rank 3: 1 KiB and 2 KiB jump at once               recorded, not re-read
//
// It returns the set and, by request size, rank and repetition, the timing
// computed from the events as they are written.
func fallbackSet() (*trace.Set, map[int64][][]pattern.RepMeta) {
	const np, reps = 4, 12
	const contig = reps // no jump before any repetition
	type lap struct {
		size   int64
		jumpAt int // first repetition preceded by a tick jump
	}
	ranks := [np][]lap{
		{{1024, contig}, {2048, contig}},
		{{1024, 8}, {2048, 8}},
		{{512, 8}, {1024, 1}, {2048, contig}},
		{{1024, 1}, {2048, 1}},
	}
	opsOf := map[int64][]trace.Op{
		512:  {trace.OpRead},
		1024: {trace.OpWrite},
		2048: {trace.OpWrite, trace.OpRead},
	}
	s := trace.NewSet("fallback", "test", np)
	s.AddFile(trace.FileMeta{ID: 0, Name: "/f", AccessType: "shared",
		PointerSet: "explicit", Blocking: true})
	want := make(map[int64][][]pattern.RepMeta)
	for size := range opsOf {
		want[size] = make([][]pattern.RepMeta, np)
	}
	for p, laps := range ranks {
		tick := int64(10 * p)
		var tm units.Duration
		for g, l := range laps {
			unit := opsOf[l.size]
			base := int64(p)<<30 + int64(g)<<20
			for r := 0; r < reps; r++ {
				if r >= l.jumpAt {
					tick += 7 // other MPI events before this repetition
				}
				rm := pattern.RepMeta{Tick: tick + 1, Start: tm}
				for slot, op := range unit {
					tick++
					d := units.Duration(1000*(p+1) + 10*r + slot)
					s.Record(trace.Event{Rank: p, File: 0, Op: op,
						Offset: base + int64(r*len(unit)+slot)*l.size, Size: l.size,
						Tick: tick, Time: tm, Duration: d})
					rm.Elapsed += d
					tm += d + 1
				}
				want[l.size][p] = append(want[l.size][p], rm)
			}
			tick += 3
		}
	}
	return s, want
}

// TestIdentifyStreamFallback: split-group members the Miner cannot time
// are filled by re-reading their ranks, once each, without touching the
// repetitions the Miner recorded on the same rank.
func TestIdentifyStreamFallback(t *testing.T) {
	set, want := fallbackSet()
	src := readerPath(set.Source())
	const reread = 3 // ranks 0, 1 and 2

	// Per rank: the repetition timing every split member carries.
	perRank := sweep.Map(make([]struct{}, set.NP), func(p int, _ struct{}) streamRank {
		return mineRank(src, p)
	})
	g := groupMembers(perRank)
	before := cRescans.Value()
	if err := fillSplitReps(src, g, set.NP); err != nil {
		t.Fatal(err)
	}
	if n := cRescans.Value() - before; n != reread {
		t.Fatalf("%d ranks re-read, want %d", n, reread)
	}
	for _, key := range g.order {
		for _, m := range g.groups[key] {
			if w := want[m.lap.Unit[0].Size][m.rank]; !reflect.DeepEqual(m.lap.Reps, w) {
				t.Errorf("rank %d, %d B LAP: Reps\n%+v\nwant\n%+v", m.rank, m.lap.Unit[0].Size, m.lap.Reps, w)
			}
		}
	}

	// Per phase: each rank's start and busy time, and the earliest tick.
	before = cRescans.Value()
	res, err := IdentifyStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := cRescans.Value() - before; n != reread {
		t.Fatalf("IdentifyStream re-read %d ranks, want %d", n, reread)
	}
	if len(res.Phases) != 36 {
		t.Fatalf("%d phases, want three families of 12:\n%s", len(res.Phases), res.FormatTable())
	}
	for _, ph := range res.Phases {
		if ph.FamilyID == 0 {
			t.Fatalf("phase %d is not in a family", ph.ID)
		}
		byRank := want[ph.RequestSize()]
		tick := int64(math.MaxInt64)
		for _, ra := range ph.Ranks {
			w := byRank[ra.Rank][ph.FamilyRep-1]
			if ra.Start != w.Start || ra.Elapsed != w.Elapsed {
				t.Errorf("phase %d rank %d: start %v elapsed %v, want %v %v",
					ph.ID, ra.Rank, ra.Start, ra.Elapsed, w.Start, w.Elapsed)
			}
			tick = min(tick, w.Tick)
		}
		if ph.Tick != tick {
			t.Errorf("phase %d: tick %d, want %d", ph.ID, ph.Tick, tick)
		}
	}
}

// TestIdentifyStreamRejectsVolumeOverflow: trace sizes are untrusted, and
// a phase weight or a total volume that wraps int64 must fail extraction
// with the phase named, from text and IOBIN1 files alike.
func TestIdentifyStreamRejectsVolumeOverflow(t *testing.T) {
	cases := []struct {
		name                string
		size, off0, offStep int64
		tickStep            int64
		wantPhase           string
	}{
		// Four back-to-back writes: one phase of 2^64 bytes.
		{"weight", 1 << 62, 0, 1 << 60, 1, "phase 1 "},
		// Four writes five ticks apart: four phases of 2^61, 2^63 in all.
		{"total", 1 << 61, -(1 << 62), 1 << 61, 5, "phase 4 "},
	}
	for _, c := range cases {
		set := trace.NewSet("overflow", "test", 1)
		set.AddFile(trace.FileMeta{ID: 0, Name: "/f", AccessType: "shared",
			PointerSet: "explicit", Blocking: true})
		for i := int64(0); i < 4; i++ {
			set.Record(trace.Event{Rank: 0, File: 0, Op: trace.OpWriteAt,
				Offset: c.off0 + i*c.offStep, Size: c.size, Tick: 1 + i*c.tickStep,
				Time: units.Duration(i) * units.Millisecond, Duration: units.Millisecond})
		}
		for _, f := range []trace.Format{trace.FormatText, trace.FormatBinary} {
			dir := t.TempDir()
			if err := trace.WriteDir(set.Source(), dir, f); err != nil {
				t.Fatalf("%s %s: %v", c.name, f, err)
			}
			src, err := trace.OpenDir(dir)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, f, err)
			}
			res, err := IdentifyStream(src)
			if err == nil {
				t.Errorf("%s %s: accepted; %d phases of %d bytes in all", c.name, f, len(res.Phases), res.TotalBytes())
			} else if !strings.Contains(err.Error(), c.wantPhase) || !strings.Contains(err.Error(), "overflows int64") {
				t.Errorf("%s %s: error %q does not name %q as overflowing", c.name, f, err, c.wantPhase)
			}
		}
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
