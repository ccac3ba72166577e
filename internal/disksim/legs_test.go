package disksim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/des"
	"iophases/internal/faults"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// forkArray serves an Array's requests the way the simulator did before
// member legs became event callbacks: one Fork helper process per touched
// member, and a nested Fork for a rebuild read. It is the oracle of
// TestArrayLegsMatchForkHelpers; Read and Write are Array's, with issue
// swapped.
type forkArray struct{ *Array }

func (a forkArray) Read(p *des.Proc, offset, size int64) {
	a.queue.Acquire(p, 1)
	a.issue(p, NewStripe(a.stripeUnit, len(a.members), offset, size), false, false, a.effectiveFailed(p.Now()))
	a.queue.Release(1)
	a.ctr.ReadOps++
	a.ctr.ReadBytes += size
}

func (a forkArray) Write(p *des.Proc, offset, size int64) {
	total := size
	a.queue.Acquire(p, 1)
	failed := a.effectiveFailed(p.Now())
	if a.level != RAID5 {
		a.issue(p, NewStripe(a.stripeUnit, len(a.members), offset, size), true, false, failed)
	} else {
		stripe := a.stripeUnit * int64(a.dataDisks())
		parts, n := raid5Parts(offset, size, stripe)
		for _, part := range parts[:n] {
			a.issue(p, NewStripe(a.stripeUnit, len(a.members), part.off, part.size), true, part.rmw, failed)
		}
	}
	a.queue.Release(1)
	a.ctr.WriteOps++
	a.ctr.WriteBytes += total
}

func (a forkArray) issue(p *des.Proc, s Stripe, write, rmw bool, failed int) {
	p.Fork(a.name+"/chunk", s.Touched(), func(hp *des.Proc, i int) {
		disk, off, n := s.Nth(i)
		if disk == failed {
			if write {
				alt := a.members[(disk+1)%len(a.members)]
				alt.Write(hp, off, n)
			} else {
				hp.Fork(a.name+"/rebuild", len(a.members)-1, func(rp *des.Proc, m int) {
					if m >= failed {
						m++
					}
					a.members[m].Read(rp, off, n)
				})
			}
			return
		}
		d := a.members[disk]
		if write {
			if rmw {
				d.Read(hp, off, n)
			}
			d.Write(hp, off, n)
			if rmw {
				d.Write(hp, off, n)
			}
		} else {
			d.Read(hp, off, n)
		}
	})
}

// legCase is a random array workload: an array shape, its member disks,
// an optional fault schedule and callers that each run a list of
// requests.
type legCase struct {
	level   RAIDLevel
	members int
	unit    int64
	params  DiskParams
	sch     *faults.Schedule
	callers [][]legOp
}

type legOp struct {
	pause     units.Duration // slept before the request
	write     bool
	off, size int64
}

func randomLegCase(rng *rand.Rand) legCase {
	c := legCase{level: RAID0, members: 2 + rng.Intn(5), params: testDiskParams()}
	if rng.Intn(2) == 0 {
		c.level, c.members = RAID5, 3+rng.Intn(4)
	}
	c.unit = []int64{4 * units.KiB, 64 * units.KiB, 256 * units.KiB}[rng.Intn(3)]
	c.params.Overhead = units.Duration(rng.Intn(2)) * 100 * units.Microsecond
	c.params.Turnaround = units.Duration(rng.Intn(2)) * units.Millisecond
	if rng.Intn(4) == 0 {
		// Service time 0 for a sequential request in the same
		// direction: the disk completes it without an event.
		c.params.SeqReadBW, c.params.SeqWriteBW = units.MBps(1e15), units.MBps(1e15)
		c.params.Overhead, c.params.Turnaround = 0, 0
	}
	switch rng.Intn(5) {
	case 1:
		c.sch = &faults.Schedule{Name: "slow", Effects: []faults.Effect{
			{Kind: faults.SlowDisk, Match: fmt.Sprintf("d%d", rng.Intn(c.members)), Factor: 1.5 + rng.Float64()},
		}}
	case 2: // lost for the whole run
		c.sch = lostMember(rng.Intn(c.members))
	case 3: // lost for a window that opens and closes mid-run
		c.sch = &faults.Schedule{Name: "window", Effects: []faults.Effect{
			{Kind: faults.RAIDMemberLost, Member: rng.Intn(c.members), FromSec: 0.01 * rng.Float64(), ForSec: 0.001 + 0.05*rng.Float64()},
		}}
	case 4: // rebuilt at a rate that ends the loss mid-run
		c.params.CapacityB = units.MiB
		c.sch = &faults.Schedule{Name: "rebuild", Effects: []faults.Effect{
			{Kind: faults.RAIDMemberLost, Member: rng.Intn(c.members), RebuildMBps: 20 + 80*rng.Float64()},
		}}
	}
	data := c.members
	if c.level == RAID5 {
		data--
	}
	stripe := c.unit * int64(data)
	for n := 1 + rng.Intn(8); n > 0; n-- {
		var ops []legOp
		for k := 1 + rng.Intn(6); k > 0; k-- {
			op := legOp{write: rng.Intn(2) == 0}
			if rng.Intn(3) > 0 {
				op.pause = units.Duration(rng.Intn(20)) * 100 * units.Microsecond
			}
			switch rng.Intn(4) {
			case 0: // whole stripes
				op.off, op.size = int64(rng.Intn(8))*stripe, int64(1+rng.Intn(3))*stripe
			case 1: // within one or two units
				op.off, op.size = rng.Int63n(8*stripe), 1+rng.Int63n(c.unit)
			case 2: // ragged head and tail, up to all members
				op.off, op.size = rng.Int63n(8*stripe), 1+rng.Int63n(3*stripe)
			default: // a ragged extent, sometimes empty
				op.off, op.size = rng.Int63n(8*stripe), rng.Int63n(stripe/2+1)
			}
			ops = append(ops, op)
		}
		c.callers = append(c.callers, ops)
	}
	return c
}

// legRun is what TestArrayLegsMatchForkHelpers compares: each request's
// completion (virtual time, caller, request index), the member and array
// counters, and the telemetry dump without des/proc_parks, which counts
// the helpers' parks and so differs by design. The dump holds
// des/events_scheduled and the disks' queue-wait histogram.
type legRun struct {
	trace   []string
	members []Counters
	array   Counters
	metrics string
	parks   int64
}

func runLegCase(c legCase, oracle bool) legRun {
	obs.Default().Reset()
	eng := des.NewEngine()
	if c.sch != nil {
		faults.Attach(eng, c.sch, "test")
	}
	disks := make([]*Disk, c.members)
	for i := range disks {
		disks[i] = NewDisk(eng, fmt.Sprintf("ion0/d%d", i), c.params)
	}
	a := NewArray(eng, "ion0/md", c.level, disks, c.unit)
	var dev interface {
		Read(p *des.Proc, offset, size int64)
		Write(p *des.Proc, offset, size int64)
	} = a
	if oracle {
		dev = forkArray{a}
	}
	var run legRun
	for i, ops := range c.callers {
		name := fmt.Sprintf("c%d", i)
		eng.Spawn(name, func(p *des.Proc) {
			for k, op := range ops {
				p.Sleep(op.pause)
				if op.write {
					dev.Write(p, op.off, op.size)
				} else {
					dev.Read(p, op.off, op.size)
				}
				run.trace = append(run.trace, fmt.Sprintf("%d %s %d", p.Now(), name, k))
			}
		})
	}
	eng.Run()
	for _, d := range disks {
		run.members = append(run.members, d.Counters())
	}
	run.array = a.Counters()
	run.parks = obs.Default().Counter("des/proc_parks").Value()
	var b bytes.Buffer
	if err := obs.Default().WriteText(&b); err != nil {
		panic(err)
	}
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.HasPrefix(line, "des/proc_parks") {
			run.metrics += line
		}
	}
	return run
}

// TestArrayLegsMatchForkHelpers drives random request mixes through the
// callback legs and through the Fork helpers they replace: RAID0 and
// RAID5, whole-stripe and ragged extents touching one to all members,
// more callers than the controller admits, a slow disk, and a lost
// member for the whole run, for a window, or until a rebuild ends. Both
// must complete every request at the same virtual time, leave the same
// member counters, and schedule the same events; the legs park only the
// callers.
func TestArrayLegsMatchForkHelpers(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.Default().Reset()
	for seed := int64(1); seed <= 300; seed++ {
		c := randomLegCase(rand.New(rand.NewSource(seed)))
		want := runLegCase(c, true)
		got := runLegCase(c, false)
		if !reflect.DeepEqual(got.trace, want.trace) {
			t.Fatalf("seed %d: completions\n%v\nwant (Fork helpers)\n%v", seed, got.trace, want.trace)
		}
		if !reflect.DeepEqual(got.members, want.members) || got.array != want.array {
			t.Fatalf("seed %d: counters %+v / %+v, want %+v / %+v", seed, got.members, got.array, want.members, want.array)
		}
		if got.metrics != want.metrics {
			t.Fatalf("seed %d: telemetry\n%s\nwant (Fork helpers)\n%s", seed, got.metrics, want.metrics)
		}
		if got.parks > want.parks {
			t.Fatalf("seed %d: %d parks, more than the helpers' %d", seed, got.parks, want.parks)
		}
	}
}

// TestArrayRequestAllocatesNothing: once an array has served a request of
// each kind, the next ones allocate nothing: plain and read-modify-write
// legs on a healthy RAID5, and a rebuild read and a write redirected from
// the lost member on a degraded one.
func TestArrayRequestAllocatesNothing(t *testing.T) {
	eng := des.NewEngine()
	faults.Attach(eng, &faults.Schedule{Name: "lost", Effects: []faults.Effect{
		{Kind: faults.RAIDMemberLost, Match: "degraded", Member: 1},
	}}, "test")
	array := func(name string) *Array {
		var members []*Disk
		for i := 0; i < 5; i++ {
			members = append(members, NewDisk(eng, fmt.Sprintf("%s/d%d", name, i), testDiskParams()))
		}
		return NewArray(eng, name, RAID5, members, 64*units.KiB)
	}
	healthy, degraded := array("healthy"), array("degraded")
	const unit = 64 * units.KiB
	allocs := -1.0
	eng.Spawn("m", func(p *des.Proc) {
		requests := func() {
			healthy.Write(p, unit/2, 5*unit)
			healthy.Read(p, 0, 5*unit)
			degraded.Read(p, 0, 5*unit)
			degraded.Write(p, unit/2, 5*unit)
		}
		requests()
		allocs = testing.AllocsPerRun(20, requests)
	})
	eng.Run()
	if allocs != 0 {
		t.Fatalf("warmed array requests allocate %.1f times per run, want 0", allocs)
	}
}
