package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iophases/internal/trace"
)

// ev builds a data event with sequential ticks handled by the caller.
func ev(op trace.Op, off, size, tick int64) trace.Event {
	return trace.Event{Rank: 0, File: 1, Op: op, Offset: off, Size: size, Tick: tick}
}

func TestExtractSimpleRun(t *testing.T) {
	// 40 writes advancing 265302 etypes each — Figure 3's first row.
	var events []trace.Event
	for i := int64(0); i < 40; i++ {
		events = append(events, ev(trace.OpWriteAtAll, i*265302, 10612080, 148+i*121))
	}
	laps := Extract(0, events)
	if len(laps) != 1 {
		t.Fatalf("laps = %d, want 1", len(laps))
	}
	l := laps[0]
	if l.Rep != 40 || len(l.Unit) != 1 {
		t.Fatalf("lap %+v", l)
	}
	u := l.Unit[0]
	if u.Disp != 265302 || u.InitOffset != 0 || u.Size != 10612080 {
		t.Fatalf("unit %+v", u)
	}
	if l.Contiguous() {
		t.Fatal("121-tick strides must not be contiguous")
	}
}

func TestExtractWriteThenRead(t *testing.T) {
	// Figure 3: 40 writes then 40 reads, same geometry.
	var events []trace.Event
	tick := int64(1)
	for i := int64(0); i < 40; i++ {
		events = append(events, ev(trace.OpWriteAtAll, i*265302, 10612080, tick))
		tick += 121
	}
	for i := int64(0); i < 40; i++ {
		events = append(events, ev(trace.OpReadAtAll, i*265302, 10612080, tick))
		tick++
	}
	laps := Extract(0, events)
	if len(laps) != 2 {
		t.Fatalf("laps = %d, want 2:\n%s", len(laps), FormatTable(laps))
	}
	if !laps[0].Unit[0].Op.IsWrite() || !laps[1].Unit[0].Op.IsRead() {
		t.Fatalf("ops %s %s", laps[0].Unit[0].Op, laps[1].Unit[0].Op)
	}
	if !laps[1].Contiguous() {
		t.Fatal("back-to-back reads should be tick-contiguous")
	}
}

func TestExtractMadbenchShape(t *testing.T) {
	// The W-function steady state: R R (W R)x6 W W, preceded by 8 S
	// writes and followed by 8 C reads — must yield exactly 5 LAPs
	// matching Table VIII.
	const MB32 = 32 << 20
	base := int64(0)
	var events []trace.Event
	tick := int64(1)
	add := func(op trace.Op, bin int64) {
		events = append(events, ev(op, base+bin*MB32, MB32, tick))
		tick += 3 // barriers/busy-work between I/O calls
	}
	for b := int64(0); b < 8; b++ {
		add(trace.OpWrite, b) // S
	}
	add(trace.OpRead, 0) // W prime
	add(trace.OpRead, 1)
	for i := int64(0); i < 6; i++ { // W steady state
		add(trace.OpWrite, i)
		add(trace.OpRead, i+2)
	}
	add(trace.OpWrite, 6) // W drain
	add(trace.OpWrite, 7)
	for b := int64(0); b < 8; b++ {
		add(trace.OpRead, b) // C
	}
	laps := Extract(0, events)
	if len(laps) != 5 {
		t.Fatalf("laps = %d, want 5:\n%s", len(laps), FormatTable(laps))
	}
	wantReps := []int{8, 2, 6, 2, 8}
	wantUnit := []int{1, 1, 2, 1, 1}
	for i, l := range laps {
		if l.Rep != wantReps[i] || len(l.Unit) != wantUnit[i] {
			t.Fatalf("lap %d: rep=%d unit=%d, want rep=%d unit=%d",
				i, l.Rep, len(l.Unit), wantReps[i], wantUnit[i])
		}
	}
	// Phase 3's unit: write at bin i, read at bin i+2 — disp 32MB both.
	p3 := laps[2]
	if p3.Unit[0].Disp != MB32 || p3.Unit[1].Disp != MB32 {
		t.Fatalf("phase3 disps %+v", p3.Unit)
	}
	if p3.Unit[1].InitOffset-p3.Unit[0].InitOffset != 2*MB32 {
		t.Fatalf("phase3 read/write skew %+v", p3.Unit)
	}
}

func TestExtractSingletons(t *testing.T) {
	events := []trace.Event{
		ev(trace.OpWrite, 0, 100, 1),
		ev(trace.OpRead, 500, 200, 2),
		ev(trace.OpWrite, 90, 300, 3),
	}
	laps := Extract(0, events)
	if len(laps) != 3 {
		t.Fatalf("laps = %d, want 3 singletons", len(laps))
	}
	for _, l := range laps {
		if l.Rep != 1 || len(l.Unit) != 1 {
			t.Fatalf("lap %+v", l)
		}
	}
}

func TestExtractPrefersSmallestPeriodOnTie(t *testing.T) {
	// 8 identical-progression writes: k=1 rep=8 must win over k=2 rep=4.
	var events []trace.Event
	for i := int64(0); i < 8; i++ {
		events = append(events, ev(trace.OpWrite, i*100, 100, i+1))
	}
	laps := Extract(0, events)
	if len(laps) != 1 || len(laps[0].Unit) != 1 || laps[0].Rep != 8 {
		t.Fatalf("laps %+v", laps)
	}
}

// TestExpandRoundTrip is the core invariant: expanding extracted LAPs
// reproduces the original event skeleton byte-for-byte.
func TestExpandRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		var events []trace.Event
		off := int64(0)
		for i := 0; i < count; i++ {
			op := trace.OpWrite
			if rng.Intn(2) == 1 {
				op = trace.OpRead
			}
			size := int64(rng.Intn(4)+1) * 1024
			events = append(events, ev(op, off, size, int64(i+1)))
			// Mix of advancing, repeating, and jumping offsets.
			switch rng.Intn(3) {
			case 0:
				off += size
			case 1: // repeat
			case 2:
				off = int64(rng.Intn(1 << 20))
			}
		}
		got := Expand(Extract(0, events))
		if len(got) != len(events) {
			return false
		}
		for i, g := range got {
			e := events[i]
			if g.File != e.File || g.Op != e.Op || g.Size != e.Size || g.InitOffset != e.Offset {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%80) + 1
		var events []trace.Event
		var total int64
		for i := 0; i < count; i++ {
			size := int64(rng.Intn(1000) + 1)
			total += size
			events = append(events, ev(trace.OpWrite, int64(rng.Intn(100))*1000, size, int64(i+1)))
		}
		var sum int64
		for _, l := range Extract(0, events) {
			sum += l.Bytes()
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureIgnoresInitOffset(t *testing.T) {
	a := Template{File: 1, Op: trace.OpWrite, Size: 100, Disp: 10, InitOffset: 0}
	b := Template{File: 1, Op: trace.OpWrite, Size: 100, Disp: 10, InitOffset: 9999}
	if a.Signature() != b.Signature() {
		t.Fatal("signature must ignore InitOffset (simLAP definition)")
	}
	c := Template{File: 1, Op: trace.OpWrite, Size: 100, Disp: 11}
	if a.Signature() == c.Signature() {
		t.Fatal("signature must include Disp")
	}
}
