package des

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iophases/internal/units"
)

// TestElisionEngagesWhenUncontended pins that the fast path actually fires:
// a lone sleeping proc must advance the clock inline, never parking.
func TestElisionEngagesWhenUncontended(t *testing.T) {
	e := NewEngine()
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(units.Millisecond)
		}
	})
	e.Run()
	if e.Now() != 10*units.Millisecond {
		t.Fatalf("clock at %v, want 10ms", e.Now())
	}
	if e.elided != 10 {
		t.Fatalf("elisions = %d, want 10", e.elided)
	}
}

// TestElisionTieFallsBackToQueue pins the legality boundary: an event at
// exactly now+d was scheduled before the sleep's resume would be, so it
// must fire first — the sleep may not elide past it.
func TestElisionTieFallsBackToQueue(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(units.Millisecond, func() { order = append(order, "event") })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(units.Millisecond)
		order = append(order, "proc")
	})
	e.Run()
	if want := []string{"event", "proc"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestElisionIdenticalToParkResume is the bit-identity contract of the fast
// path: any mix of sleeps, resources and barriers must produce the same
// completion stamps with elision on and off.
func TestElisionIdenticalToParkResume(t *testing.T) {
	run := func() []units.Duration {
		e := NewEngine()
		r := NewResource(e, "r", 2)
		b := NewBarrier(e, "b", 4)
		var stamps []units.Duration
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Sleep(units.Duration(1+(i*7+k*3)%5) * units.Millisecond)
					r.Acquire(p, 1)
					p.Sleep(units.Duration(1+(i+k)%3) * units.Millisecond)
					r.Release(1)
					b.Wait(p)
				}
				stamps = append(stamps, p.Now())
			})
		}
		e.Run()
		return stamps
	}
	fast := run()
	elisionDisabled = true
	slow := run()
	elisionDisabled = false
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("elided run %v differs from park/resume run %v", fast, slow)
	}
}

// Property form of the same contract over random sleep schedules.
func TestQuickElisionInvariance(t *testing.T) {
	stamps := func(raw []uint16) []units.Duration {
		e := NewEngine()
		var out []units.Duration
		for i, r := range raw {
			d := units.Duration(r) * units.Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				p.Sleep(d / 2)
				out = append(out, p.Now())
			})
		}
		e.Run()
		return out
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		fast := stamps(raw)
		elisionDisabled = true
		slow := stamps(raw)
		elisionDisabled = false
		return reflect.DeepEqual(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// mixTrace runs a pseudo-random workload derived from seed and records
// every observable step as (proc, virtual time) pairs plus the final clock.
// The workload mixes the engine's whole surface — sleeps (elidable and
// tied), callbacks scheduled from proc context, yields, a contended
// resource, and a mailbox — so any reordering by the elision fast path
// shows up in the trace.
func mixTrace(seed uint64) ([]string, units.Duration) {
	e := NewEngine()
	rng := seed
	next := func(n uint64) uint64 { // xorshift64, deterministic across runs
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	var tr []string
	note := func(who string, at units.Duration) {
		tr = append(tr, fmt.Sprintf("%s@%d", who, at))
	}
	res := NewResource(e, "res", 2)
	mbox := NewMailbox(e, "mb", 1)
	np := int(2 + next(5))
	for i := 0; i < np; i++ {
		i := i
		steps := int(3 + next(6))
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				switch next(5) {
				case 0:
					p.Sleep(units.Duration(next(200)) * units.Microsecond)
				case 1:
					d := units.Duration(next(100)) * units.Microsecond
					e.Schedule(d, func() { note(fmt.Sprintf("cb%d", i), e.Now()) })
				case 2:
					res.Acquire(p, 1)
					p.Sleep(units.Duration(10+next(40)) * units.Microsecond)
					res.Release(1)
				case 3:
					p.Yield()
				case 4:
					if i%2 == 0 {
						mbox.Put(p, i)
					} else {
						mbox.Get(p)
					}
				}
				note(fmt.Sprintf("p%d.%d", i, s), p.Now())
			}
		})
	}
	// Mailbox puts and gets may be unbalanced; a harvester unsticks any
	// party still parked once the queue drains, so the run terminates for
	// every seed.
	e.Spawn("harvest", func(p *Proc) {
		for {
			p.Sleep(units.Second)
			if len(e.queue) > 0 {
				continue // still making progress
			}
			if len(e.live) <= 1 {
				return // only the harvester remains
			}
			mbox.promoteAll()
		}
	})
	e.Run()
	return tr, e.Now()
}

// promoteAll unblocks every parked mailbox party (test-only: the harvester
// uses it to guarantee the random workload terminates).
func (m *Mailbox) promoteAll() {
	for len(m.putters) > 0 {
		m.promotePutter()
	}
	for len(m.getters) > 0 {
		g := m.getters[0]
		m.getters = m.getters[1:]
		m.items = append(m.items, len(m.items))
		m.eng.scheduleResume(0, g)
	}
}

// TestQuickElisionInvarianceMixed is the engine-wide determinism property:
// for random mixed workloads the event trace and final clock with switch
// elision on are bit-identical to the park/resume-only run.
func TestQuickElisionInvarianceMixed(t *testing.T) {
	prop := func(seed uint64) bool {
		fast, fastEnd := mixTrace(seed)
		elisionDisabled = true
		slow, slowEnd := mixTrace(seed)
		elisionDisabled = false
		if fastEnd != slowEnd || !reflect.DeepEqual(fast, slow) {
			t.Logf("seed %d: end %v vs %v, trace %v vs %v",
				seed, fastEnd, slowEnd, fast, slow)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockReportNamesProcsAndReasons covers the diagnostics path: the
// panic must name every blocked proc with the reason it parked under.
func TestDeadlockReportNamesProcsAndReasons(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock not detected")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic payload %T, want string", r)
		}
		for _, want := range []string{
			"deadlock at ",
			"elided=",
			"switches=",
			"2 blocked processes",
			"alice[waiting-for-token]",
			"bob[holding-pattern]",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report %q missing %q", msg, want)
			}
		}
	}()
	e := NewEngine()
	e.Spawn("alice", func(p *Proc) { p.Park("waiting-for-token") })
	e.Spawn("bob", func(p *Proc) { p.Park("holding-pattern") })
	e.Run()
}

// TestProcRecyclingDrainsPool pins that finished engines leave no parked
// helper goroutines behind: spawning through several Run cycles reuses the
// pool and Run's exit empties it.
func TestProcRecyclingDrainsPool(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			e.Spawn("w", func(p *Proc) { p.Sleep(units.Microsecond) })
		}
		e.Run()
		if len(e.pool) != 0 {
			t.Fatalf("round %d: %d procs still pooled after Run", round, len(e.pool))
		}
		if len(e.live) != 0 {
			t.Fatalf("round %d: %d procs still live", round, len(e.live))
		}
	}
}

// TestDeadlockReportCarriesVirtualTime pins that a hang report is
// self-locating in virtual time: a process parking forever after advancing
// the clock must produce a panic stamped with that exact timestamp.
func TestDeadlockReportCarriesVirtualTime(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock not detected")
		}
		msg := r.(string)
		if !strings.Contains(msg, "deadlock at 0.001500s") {
			t.Errorf("deadlock report %q missing virtual timestamp 0.001500s", msg)
		}
	}()
	e := NewEngine()
	e.Spawn("stall", func(p *Proc) {
		p.Sleep(1500 * units.Microsecond)
		p.Park("forever")
	})
	e.Run()
}
