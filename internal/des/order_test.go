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
// callbacks scheduled from proc context, unpark-then-park yields and a
// contended resource — so any change to event order shows up in the trace.
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
	np := int(2 + next(5))
	for i := 0; i < np; i++ {
		i := i
		steps := int(3 + next(6))
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps; s++ {
				switch next(4) {
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
				}
				note(fmt.Sprintf("p%d.%d", i, s), p.Now())
			}
		})
	}
	e.Run()
	return tr, e.Now()
}

// mixGolden is mixTrace's output for seeds 1–32: the number of trace
// steps, the final clock in nanoseconds and the FNV-64a digest of the
// trace lines. It was recorded on the goroutine-and-channel handoff that
// the coroutine engine replaced, once the mailbox step had left mixTrace
// with des.Mailbox, so it pins that the coroutine handoff kept the event
// order. (The coroutine engine also reproduced the previous values, which
// that step still drove.)
var mixGolden = []struct {
	seed   uint64
	steps  int
	end    int64
	digest uint64
}{
	{1, 28, 223000, 0xfe0669ccc4330810},
	{2, 32, 396000, 0x7e1e688e241baf40},
	{3, 31, 514000, 0xf14a5c3d6163da97},
	{4, 50, 255000, 0x8f04a96bd8cb1081},
	{5, 15, 230000, 0x5c265f3aaef7d9db},
	{6, 29, 430000, 0x1055776771041db5},
	{7, 24, 277000, 0xfd5825cbbb48ba23},
	{8, 35, 236000, 0xe732a6cd4ba1fc40},
	{9, 45, 382000, 0x89f9afbb0507e938},
	{10, 15, 262000, 0xd3b97b2024a269f1},
	{11, 24, 319000, 0x6ddf9612b4acdec8},
	{12, 29, 449000, 0xcc792f25dfeb756f},
	{13, 38, 319000, 0x8c09123511cec90b},
	{14, 44, 289000, 0x65da7c77ec67dde5},
	{15, 10, 179000, 0x0d8ba6e3cd4b9fd9},
	{16, 18, 188000, 0xfc2f003f7f7a25c3},
	{17, 27, 466000, 0xecad727069237c2e},
	{18, 33, 679000, 0x44c062144c407784},
	{19, 19, 662000, 0x98eae3d998088278},
	{20, 11, 184000, 0x475293d791c233f4},
	{21, 37, 309000, 0x805c951eb4502988},
	{22, 34, 536000, 0x086dab859b4b05a1},
	{23, 40, 444000, 0x045b0612d9fa307d},
	{24, 47, 323000, 0x9d918a63d307c232},
	{25, 17, 430000, 0xc0c994856bbfc1e2},
	{26, 21, 291000, 0x209aa7b2b1b3f8bc},
	{27, 33, 370000, 0xad88149bba288cad},
	{28, 25, 360000, 0xf364150202fa3da4},
	{29, 19, 305000, 0x37652ae66be0c1f1},
	{30, 15, 163000, 0x10fdf00c3cef0a91},
	{31, 31, 272000, 0x54048c909ccee146},
	{32, 19, 240000, 0x978b37f31765726f},
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

// TestProcRecyclingDrainsPool pins that a finished run leaves no procs in
// its engine: spawning through several Run cycles reuses the coroutines,
// and Run's exit hands the pool to the idle list.
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
