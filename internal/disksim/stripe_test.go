package disksim

import (
	"math/rand"
	"reflect"
	"testing"

	"iophases/internal/units"
)

// memberRun is one member request of a striped extent.
type memberRun struct {
	disk   int
	offset int64
	size   int64
}

// runs lists s's member runs through Touched and Nth, in first-touch
// order.
func runs(s Stripe) []memberRun {
	var out []memberRun
	for i := 0; i < s.Touched(); i++ {
		disk, off, n := s.Nth(i)
		out = append(out, memberRun{disk: disk, offset: off, size: n})
	}
	return out
}

// loopStripeSplit is the striping code Stripe replaced, kept as the
// oracle for its closed form: one chunk per stripe unit, then coalesce.
func loopStripeSplit(stripeUnit int64, nmembers int, offset, size int64) []memberRun {
	n := int64(nmembers)
	var out []memberRun
	for size > 0 {
		unitIdx := offset / stripeUnit
		within := offset % stripeUnit
		take := stripeUnit - within
		if take > size {
			take = size
		}
		disk := int(unitIdx % n)
		row := unitIdx / n
		out = append(out, memberRun{disk: disk, offset: row*stripeUnit + within, size: take})
		offset += take
		size -= take
	}
	return coalesce(out, nmembers)
}

// coalesce merges per-disk chunks that are contiguous in member-local
// space, preserving first-touch order.
func coalesce(chunks []memberRun, ndisks int) []memberRun {
	last := make([]int, ndisks) // index+1 of the last chunk kept per disk
	out := chunks[:0]
	for _, c := range chunks {
		if li := last[c.disk]; li > 0 {
			prev := &out[li-1]
			if prev.offset+prev.size == c.offset {
				prev.size += c.size
				continue
			}
		}
		out = append(out, c)
		last[c.disk] = len(out)
	}
	return out
}

// randomStripeCase draws a (unit, members, offset, size) case: units both
// powers of two and odd, extents from one byte to several stripe rows,
// offsets up to 1 TiB.
func randomStripeCase(rng *rand.Rand) (unit int64, members int, offset, size int64) {
	if rng.Intn(2) == 0 {
		unit = 1 << rng.Intn(21)
	} else {
		unit = 1 + rng.Int63n(1<<20)
	}
	members = 1 + rng.Intn(16)
	offset = rng.Int63n(units.TiB)
	if rng.Intn(4) == 0 {
		offset -= offset % unit // aligned start
	}
	size = 1 + rng.Int63n(unit*int64(3*members+2))
	return unit, members, offset, size
}

// TestStripeSplitMatchesLoop pins the closed form against the per-unit
// loop plus coalesce it replaced, on random layouts: Touched and Nth
// must list the oracle's chunks in its first-touch order, and Run must
// agree with Nth on every member, touched or not.
func TestStripeSplitMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		unit, members, offset, size := randomStripeCase(rng)
		want := loopStripeSplit(unit, members, offset, size)
		s := NewStripe(unit, members, offset, size)
		got := runs(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("unit=%d members=%d offset=%d size=%d:\n got %+v\nwant %+v",
				unit, members, offset, size, got, want)
		}
		touched := make(map[int]memberRun, len(want))
		for _, c := range want {
			touched[c.disk] = c
		}
		for m := 0; m < members; m++ {
			local, n, ok := s.Run(m)
			c, hit := touched[m]
			if ok != hit || (ok && (local != c.offset || n != c.size)) {
				t.Fatalf("unit=%d members=%d offset=%d size=%d: Run(%d) = %d, %d, %v; want %+v, %v",
					unit, members, offset, size, m, local, n, ok, c, hit)
			}
		}
	}
	if got := NewStripe(64*units.KiB, 4, 0, 0); got.Touched() != 0 {
		t.Fatalf("empty extent touches %d members", got.Touched())
	}
}

// TestArrayClockOpTimeAllocatesNothing pins the allocation floor of the
// fast path's device clock: striping is a value, nothing is buffered.
func TestArrayClockOpTimeAllocatesNothing(t *testing.T) {
	for _, level := range []RAIDLevel{RAID0, RAID5} {
		var a ArrayClock
		a.Reset(level, 4, 256*units.KiB, testDiskParams())
		var off int64
		allocs := testing.AllocsPerRun(100, func() {
			a.OpTime(off, 3*units.MiB+12345, true)
			a.OpTime(off, 3*units.MiB+12345, false)
			off += 5 * units.MiB
		})
		if allocs != 0 {
			t.Errorf("level %d: OpTime allocates %v per run, want 0", level, allocs)
		}
	}
}
