package pattern

import (
	"fmt"
	"reflect"
	"testing"

	"iophases/internal/trace"
	"iophases/internal/units"
)

// decodeStream turns fuzz bytes into one rank's event stream, two bytes an
// event. In the first byte, bits 0-1 pick the event (write or read of 1 KiB,
// write of 2 KiB, or a non-data set-view), bits 2-3 the offset (advance by
// the size, repeat, jump to arg·4 KiB, or advance by twice the size) and
// bits 4-6 the tick step (+1 in four of eight codes, a jump of 2+arg%8, a
// repeat, a step back of 1+arg%4, or +5 as between BT-IO's dumps). The
// second byte is arg, and also sets the op's duration.
func decodeStream(b []byte) []trace.Event {
	var events []trace.Event
	var off, tick int64
	var tm units.Duration
	for ; len(b) >= 2; b = b[2:] {
		code, arg := b[0], int64(b[1])
		switch (code >> 4) & 7 {
		case 4:
			tick += 2 + arg%8
		case 5:
		case 6:
			tick -= 1 + arg%4
		case 7:
			tick += 5
		default:
			tick++
		}
		d := units.Duration(1 + arg%7)
		ev := trace.Event{Rank: 0, File: 1, Tick: tick, Time: tm, Duration: d}
		tm += d + 1
		switch code & 3 {
		case 0:
			ev.Op, ev.Size = trace.OpWrite, 1024
		case 1:
			ev.Op, ev.Size = trace.OpRead, 1024
		case 2:
			ev.Op, ev.Size = trace.OpWrite, 2048
		case 3:
			ev.Op, ev.Duration = trace.OpSetView, 0
			events = append(events, ev)
			continue
		}
		if len(events) > 0 {
			switch (code >> 2) & 3 {
			case 0:
				off += ev.Size
			case 1:
			case 2:
				off = arg * 4096
			case 3:
				off += 2 * ev.Size
			}
		}
		ev.Offset = off
		events = append(events, ev)
	}
	return events
}

// checkAggregates checks a mined LAP against the data events it covers:
// first tick and start, total busy time, contiguity by the step rule
// (every tick step inside the LAP is +1), and Reps — recorded exactly when
// the LAP repeats and its first tick step other than +1 lies within its
// first 2·MaxPeriod events, and then equal to each repetition's first
// tick, first start and summed duration.
func checkAggregates(l *StreamLAP, data []trace.Event) error {
	covered := data[l.Start : l.Start+l.Len()]
	var elapsed units.Duration
	for _, ev := range covered {
		elapsed += ev.Duration
	}
	first := covered[0]
	if l.FirstTick != first.Tick || l.FirstStart != first.Time || l.Elapsed != elapsed {
		return fmt.Errorf("aggregates {%d %d %d}, want {%d %d %d}",
			l.FirstTick, l.FirstStart, l.Elapsed, first.Tick, first.Time, elapsed)
	}
	step := 0 // index of the first event whose tick is not its predecessor's +1
	for i := 1; i < len(covered) && step == 0; i++ {
		if covered[i].Tick != covered[i-1].Tick+1 {
			step = i
		}
	}
	if l.Contiguous() != (step == 0) {
		return fmt.Errorf("Contiguous() = %v with the first non-unit tick step at event %d", l.Contiguous(), step)
	}
	recorded := l.Rep > 1 && step > 0 && step < 2*MaxPeriod
	if (l.Reps != nil) != recorded {
		return fmt.Errorf("Reps recorded = %v, want %v (rep %d, first non-unit tick step at event %d)",
			l.Reps != nil, recorded, l.Rep, step)
	}
	if l.Reps == nil {
		return nil
	}
	if len(l.Reps) != l.Rep {
		return fmt.Errorf("%d Reps for %d repetitions", len(l.Reps), l.Rep)
	}
	k := len(l.Unit)
	for r := range l.Rep {
		rep := covered[r*k : (r+1)*k]
		want := RepMeta{Tick: rep[0].Tick, Start: rep[0].Time}
		for _, ev := range rep {
			want.Elapsed += ev.Duration
		}
		if l.Reps[r] != want {
			return fmt.Errorf("Reps[%d] = %+v, want %+v", r, l.Reps[r], want)
		}
	}
	return nil
}

// FuzzMiner pins the Miner against the greedy whole-slice oracle on
// streams the fuzzer shapes (see decodeStream), fed in chunks whose sizes
// it also picks: each byte of chunks is one chunk of 1+b%32 events, cycled;
// no bytes feed the stream whole. The LAPs must equal the oracle's, and
// every LAP's aggregates and repetition timing must match its events.
func FuzzMiner(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		events := decodeStream(stream)
		data := dataOnly(events)
		want := greedyExtract(0, data)

		m := NewMiner(0)
		for c := 0; len(events) > 0; c++ {
			n := len(events)
			if len(chunks) > 0 {
				n = min(n, 1+int(chunks[c%len(chunks)])%32)
			}
			m.Feed(events[:n])
			events = events[n:]
		}
		got := m.Finish()
		if len(got) != len(want) {
			t.Fatalf("%d laps, the oracle finds %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].LAP, want[i]) {
				t.Fatalf("lap %d:\ngot  %+v\nwant %+v", i, got[i].LAP, want[i])
			}
			if err := checkAggregates(&got[i], data); err != nil {
				t.Fatalf("lap %d (%+v): %v", i, got[i].LAP, err)
			}
		}
	})
}
