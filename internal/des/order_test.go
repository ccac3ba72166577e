package des

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/units"
)

// TestTiedEventFiresBeforeSleeperResumes pins tie order across a sleep: an
// event queued for exactly now+d was scheduled before the sleeper's
// resume, so it must fire first.
func TestTiedEventFiresBeforeSleeperResumes(t *testing.T) {
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

// mixTrace runs a pseudo-random workload derived from seed and records
// every observable step as (proc, virtual time) pairs plus the final clock.
// The workload mixes the engine's whole surface — sleeps (some tied),
// callbacks scheduled from proc context, unpark-then-park yields, a
// contended resource, and a mailbox — so any change to event order shows
// up in the trace.
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
					// Yield: resume behind every event already due now.
					e.Unpark(p)
					p.Park("yield", "")
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

// mixGolden is mixTrace's output for seeds 1–32: the number of trace
// steps, the final clock in nanoseconds and the FNV-64a digest of the
// trace lines. It was recorded while uncontended sleeps still advanced the
// clock inline instead of queueing a resume (the values were the same with
// that fast path off), so it pins that queueing every sleep kept the event
// order.
var mixGolden = []struct {
	seed   uint64
	steps  int
	end    int64
	digest uint64
}{
	{1, 25, 2000000000, 0xbe802a80453fd04f},
	{2, 32, 4000000000, 0xdd16598b1a07293a},
	{3, 31, 3000000000, 0xc0818c6e1a444cbb},
	{4, 42, 1000000000, 0x733f1410284785e0},
	{5, 13, 1000000000, 0xe383acc08ec17f71},
	{6, 25, 1000000000, 0x9ad1ae7c87e83fdf},
	{7, 24, 3000000000, 0x3e17b3d0ae74422a},
	{8, 27, 1000000000, 0xa8533cfdc244f2fa},
	{9, 40, 2000000000, 0x731ce39da20aeb9a},
	{10, 17, 2000000000, 0xcbec8a58a6285b30},
	{11, 18, 2000000000, 0x33b8d4be95f1feb0},
	{12, 27, 2000000000, 0x0cb6f3a35a115ddf},
	{13, 36, 2000000000, 0xf71852f25ce67527},
	{14, 40, 1000000000, 0x83ea6f0bbe69d272},
	{15, 11, 3000000000, 0x693ff91e676d7d6f},
	{16, 16, 1000000000, 0xd271790b02f36320},
	{17, 25, 3000000000, 0x3b5e1991b43026d7},
	{18, 32, 2000000000, 0xdcd041002a645e02},
	{19, 16, 3000000000, 0x72bf84169e7fd096},
	{20, 12, 1000000000, 0xe95aa5abdc163fa0},
	{21, 36, 2000000000, 0x31e6b0580f366532},
	{22, 33, 1000000000, 0xbe9af078c7bb1ee6},
	{23, 32, 2000000000, 0x0a6ec2c769e42cba},
	{24, 43, 3000000000, 0xe70f1865b94a90a1},
	{25, 20, 2000000000, 0xb9f0cc497668ed2c},
	{26, 20, 2000000000, 0x0395345ae961ead3},
	{27, 34, 3000000000, 0x28c6f9c78a621fed},
	{28, 28, 1000000000, 0xd18057c2444c41c4},
	{29, 22, 1000000000, 0xd7e5029fe77a25bb},
	{30, 11, 3000000000, 0x9c1179c9397155d4},
	{31, 29, 1000000000, 0x18c9e8120b9e0d94},
	{32, 21, 1000000000, 0xb09e300876368424},
}

// TestMixTraceGolden is the engine-wide event-order check: every seed's
// trace and final clock must match the recorded values.
func TestMixTraceGolden(t *testing.T) {
	for _, g := range mixGolden {
		tr, end := mixTrace(g.seed)
		h := fnv.New64a()
		for _, line := range tr {
			fmt.Fprintln(h, line)
		}
		if len(tr) != g.steps || int64(end) != g.end || h.Sum64() != g.digest {
			t.Errorf("seed %d: %d steps, end %d, digest %#016x; want %d, %d, %#016x\ntrace %v",
				g.seed, len(tr), int64(end), h.Sum64(), g.steps, g.end, g.digest, tr)
		}
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
			"switches=",
			"3 blocked processes",
			"alice[waiting-for-token]",
			"bob[holding-pattern]",
			"carol[cache full n0/cache]",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report %q missing %q", msg, want)
			}
		}
	}()
	e := NewEngine()
	e.Spawn("alice", func(p *Proc) { p.Park("waiting-for-token", "") })
	e.Spawn("bob", func(p *Proc) { p.Park("holding-pattern", "") })
	e.Spawn("carol", func(p *Proc) { p.Park("cache full", "n0/cache") })
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
		p.Park("forever", "")
	})
	e.Run()
}
