package pattern

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"iophases/internal/trace"
	"iophases/internal/units"
)

// randEvents generates an adversarial event stream: mixed ops and sizes,
// offsets that advance, repeat, and jump (so positions die at varied
// points), interleaved non-data events the miner must skip, and running
// ticks/times/durations for the aggregate checks.
func randEvents(rng *rand.Rand, count int) []trace.Event {
	var events []trace.Event
	off := int64(0)
	var tm units.Duration
	for i := 0; i < count; i++ {
		if rng.Intn(12) == 0 {
			events = append(events, trace.Event{Rank: 0, File: 1, Op: trace.OpSetView, Tick: int64(i + 1)})
			continue
		}
		op := trace.OpWrite
		if rng.Intn(2) == 1 {
			op = trace.OpRead
		}
		size := int64(rng.Intn(4)+1) * 1024
		d := units.Duration(rng.Intn(5000) + 1)
		events = append(events, trace.Event{
			Rank: 0, File: 1, Op: op, Offset: off, Size: size,
			Tick: int64(i + 1), Time: tm, Duration: d,
		})
		tm += d + units.Duration(rng.Intn(100))
		switch rng.Intn(3) {
		case 0:
			off += size
		case 1: // repeat
		case 2:
			off = int64(rng.Intn(1 << 20))
		}
	}
	return events
}

// feedChunked pushes events through a Miner in random-size chunks.
func feedChunked(rng *rand.Rand, events []trace.Event) *Miner {
	m := NewMiner(0)
	for len(events) > 0 {
		n := rng.Intn(7) + 1
		if n > len(events) {
			n = len(events)
		}
		m.Feed(events[:n])
		events = events[n:]
	}
	return m
}

// dataOnly keeps the data events, the ones the Miner mines.
func dataOnly(events []trace.Event) []trace.Event {
	var out []trace.Event
	for _, ev := range events {
		if ev.Op.IsData() {
			out = append(out, ev)
		}
	}
	return out
}

// TestMinerMatchesExtract pins the Miner against the greedy whole-slice
// oracle: a Miner fed any chunking of a stream yields exactly the oracle's
// LAPs, and its aggregates equal the values computed by indexing the data
// events each LAP covers.
func TestMinerMatchesExtract(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randEvents(rng, int(n%500)+1)
		data := dataOnly(events)
		want := greedyExtract(0, data)

		got := feedChunked(rng, events).Finish()
		if len(got) != len(want) {
			t.Logf("seed %d: %d laps, want %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].LAP, want[i]) {
				t.Logf("seed %d lap %d:\ngot  %+v\nwant %+v", seed, i, got[i].LAP, want[i])
				return false
			}
			if err := checkAggregates(&got[i], data); err != nil {
				t.Logf("seed %d lap %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestMinerChunkingInvariance: every chunking — including one event at a
// time and one giant chunk — yields the identical LAP stream.
func TestMinerChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := randEvents(rng, 400)

	whole := NewMiner(0)
	whole.Feed(events)
	want := whole.Finish()

	single := NewMiner(0)
	for i := range events {
		single.Feed(events[i : i+1])
	}
	if got := single.Finish(); !reflect.DeepEqual(got, want) {
		t.Fatal("event-at-a-time chunking diverged from single-chunk feed")
	}
	if whole.BoundaryMerges() != 0 {
		t.Fatalf("single-chunk feed reported %d boundary merges", whole.BoundaryMerges())
	}
}

func TestMinerCounters(t *testing.T) {
	// Long uniform run split across chunks: one LAP assembled across
	// every boundary.
	var events []trace.Event
	for i := int64(0); i < 100; i++ {
		events = append(events, trace.Event{Rank: 0, File: 1, Op: trace.OpWrite,
			Offset: i * 100, Size: 100, Tick: i + 1})
	}
	m := NewMiner(0)
	for i := 0; i < len(events); i += 10 {
		m.Feed(events[i : i+10])
	}
	laps := m.Finish()
	if len(laps) != 1 || laps[0].Rep != 100 {
		t.Fatalf("laps %+v", laps)
	}
	if m.ChunksFolded() != 10 {
		t.Fatalf("chunks folded = %d, want 10", m.ChunksFolded())
	}
	if m.BoundaryMerges() != 1 {
		t.Fatalf("boundary merges = %d, want 1", m.BoundaryMerges())
	}
}

func TestMinerEmptyAndNonData(t *testing.T) {
	m := NewMiner(0)
	m.Feed(nil)
	m.Feed([]trace.Event{{Rank: 0, File: 1, Op: trace.OpOpen}})
	if laps := m.Finish(); len(laps) != 0 {
		t.Fatalf("laps %+v, want none", laps)
	}
}

// TestMinerAllocBounded: the bytes a Miner allocates do not grow with the
// length of one repeated unit, whether its ticks are contiguous throughout
// or first jump after 100 events — past the window, where no repetition
// log starts. A Miner that logged every position from its start would
// allocate per event.
func TestMinerAllocBounded(t *testing.T) {
	buf := make([]trace.Event, 2048)
	mine := func(n, jumpAt int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := NewMiner(0)
		tick := int64(0)
		for i := 0; i < n; {
			c := min(len(buf), n-i)
			for j := range buf[:c] {
				tick++
				if i+j == jumpAt {
					tick += 10
				}
				buf[j] = trace.Event{Rank: 0, File: 1, Op: trace.OpWrite,
					Offset: int64(i+j) * 100, Size: 100, Tick: tick, Duration: 1}
			}
			m.Feed(buf[:c])
			i += c
		}
		laps := m.Finish()
		runtime.ReadMemStats(&after)
		if len(laps) != 1 {
			t.Fatalf("n=%d jump at %d: %d laps, want 1", n, jumpAt, len(laps))
		}
		if l := laps[0]; l.Rep != n || l.Contiguous() != (jumpAt < 0) || l.Reps != nil {
			t.Fatalf("n=%d jump at %d: rep %d, contiguous %v, %d Reps", n, jumpAt, l.Rep, l.Contiguous(), len(l.Reps))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 16 << 10
	for _, jumpAt := range []int{-1, 100} {
		small, large := mine(1<<14, jumpAt), mine(1<<20, jumpAt)
		if large > small+slack {
			t.Errorf("jump at %d: the Miner allocated %d B for 2^14 events and %d B for 2^20", jumpAt, small, large)
		}
	}
}

// BenchmarkMinerChunked is the streaming analogue of the Fig3 extraction
// benchmark: 1M events through 2048-event chunks.
func BenchmarkMinerChunked(b *testing.B) {
	const n = 1 << 20
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{Rank: 0, File: 1, Op: trace.OpWrite,
			Offset: int64(i%64) * 100, Size: 100, Tick: int64(i + 1)}
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMiner(0)
		for j := 0; j < n; j += 2048 {
			m.Feed(events[j : j+2048])
		}
		if laps := m.Finish(); len(laps) == 0 {
			b.Fatal("no laps")
		}
	}
}
