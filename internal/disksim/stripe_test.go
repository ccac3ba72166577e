package disksim

import (
	"math/rand"
	"reflect"
	"testing"

	"iophases/internal/units"
)

// loopStripeSplit is the striping code Stripe replaced, kept as the
// oracle for its closed form: one chunk per stripe unit, then coalesce.
func loopStripeSplit(stripeUnit int64, nmembers int, offset, size int64) []chunk {
	n := int64(nmembers)
	var out []chunk
	for size > 0 {
		unitIdx := offset / stripeUnit
		within := offset % stripeUnit
		take := stripeUnit - within
		if take > size {
			take = size
		}
		disk := int(unitIdx % n)
		row := unitIdx / n
		out = append(out, chunk{disk: disk, offset: row*stripeUnit + within, size: take})
		offset += take
		size -= take
	}
	return coalesce(out, nmembers)
}

// coalesce merges per-disk chunks that are contiguous in member-local
// space, preserving first-touch order.
func coalesce(chunks []chunk, ndisks int) []chunk {
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
// loop plus coalesce it replaced, on random layouts.
func TestStripeSplitMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []chunk
	for i := 0; i < 20000; i++ {
		unit, members, offset, size := randomStripeCase(rng)
		want := loopStripeSplit(unit, members, offset, size)
		buf = stripeSplit(buf[:0], unit, members, offset, size)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("unit=%d members=%d offset=%d size=%d:\n got %+v\nwant %+v",
				unit, members, offset, size, buf, want)
		}
	}
	if got := stripeSplit(nil, 64*units.KiB, 4, 0, 0); len(got) != 0 {
		t.Fatalf("empty extent split into %+v", got)
	}
}

// TestArrayClockOpTimeAllocatesNothing pins the allocation floor of the
// fast path's device clock: striping reuses the clock's buffer.
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
