package disksim

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/faults"
	"iophases/internal/units"
)

// RAIDLevel selects the array organization.
type RAIDLevel int

const (
	// RAID0 stripes without redundancy.
	RAID0 RAIDLevel = iota
	// RAID5 stripes with rotating parity; sub-stripe writes pay
	// read-modify-write.
	RAID5
)

// JBODStripe is the stripe unit of a node's disks joined without RAID
// (JBOD): they are built as a RAID0 array whose stripe is so large that
// whole files land on one member.
const JBODStripe = 64 * units.GiB

// Array is a striped disk array with a single controller queue. Member
// requests are issued to the member disks concurrently through helper
// processes, so a full-stripe access genuinely overlaps the spindles and
// the per-disk counters reflect real member activity (Figure 8 samples
// them).
type Array struct {
	eng        *des.Engine
	name       string
	chunkName  string // precomputed helper-proc name (issue is the hot path)
	level      RAIDLevel
	members    []*Disk
	stripeUnit int64
	queue      *des.Resource
	ctr        Counters
	flt        *faults.Injector // nil on a healthy cluster
}

// NewArray builds an array over the given member disks. stripeUnit is the
// per-disk chunk size (the paper's configuration A uses 256 KiB).
func NewArray(eng *des.Engine, name string, level RAIDLevel, members []*Disk, stripeUnit int64) *Array {
	if len(members) < 2 {
		panic(fmt.Sprintf("disksim: array %q needs >= 2 members", name))
	}
	if level == RAID5 && len(members) < 3 {
		panic(fmt.Sprintf("disksim: RAID5 array %q needs >= 3 members", name))
	}
	if stripeUnit <= 0 {
		panic(fmt.Sprintf("disksim: array %q stripe unit %d", name, stripeUnit))
	}
	return &Array{
		eng:        eng,
		name:       name,
		chunkName:  name + "/chunk",
		level:      level,
		members:    members,
		stripeUnit: stripeUnit,
		flt:        faults.For(eng),
		// The controller admits a handful of requests concurrently;
		// member queues provide the real serialization.
		queue: des.NewResource(eng, "raid:"+name, 4),
	}
}

func (a *Array) Name() string { return a.name }

// Capacity reports usable capacity (members minus one for RAID5 parity).
func (a *Array) Capacity() int64 {
	n := int64(len(a.members))
	if a.level == RAID5 {
		n--
	}
	return n * a.members[0].Capacity()
}

// dataDisks reports how many members hold data in each stripe.
func (a *Array) dataDisks() int {
	if a.level == RAID5 {
		return len(a.members) - 1
	}
	return len(a.members)
}

// Stripe is round-robin striping in closed form: the layout of an extent
// over members in unit-sized pieces, stripe unit u on member u mod
// members at member offset (u div members)·unit. One member's successive
// stripe rows are contiguous in member space, every piece but the
// extent's last ends on a unit boundary and every piece but its first
// starts on one, so the extent touches each member as one run: it starts
// in the member's first unit (mid-unit when that is the extent's first)
// and ends in its last (mid-unit when that is the extent's last). RAID
// arrays and fsim's file striping both lay data out through it.
type Stripe struct {
	unit, members           int64
	firstRow, lastRow       int64 // stripe rows of the extent's first and last units
	firstMember, lastMember int64 // members holding those units
	units                   int64 // stripe units the extent touches
	head                    int64 // extent start within its first unit
	tail                    int64 // extent bytes in its last unit
}

// NewStripe lays out the extent [offset, offset+size). It divides once
// per extent, so Run costs no division per member.
func NewStripe(unit int64, members int, offset, size int64) Stripe {
	if size <= 0 {
		return Stripe{}
	}
	m := int64(members)
	first := offset / unit
	last := (offset + size - 1) / unit
	return Stripe{
		unit: unit, members: m,
		firstRow: first / m, lastRow: last / m,
		firstMember: first % m, lastMember: last % m,
		units: last - first + 1,
		head:  offset - first*unit,
		tail:  offset + size - last*unit,
	}
}

// Touched reports how many members the extent touches. They are
// consecutive, wrapping round, from the member holding its first unit.
func (s Stripe) Touched() int { return int(min(s.units, s.members)) }

// Nth reports the extent's i-th run in first-touch order, 0 <= i <
// Touched(): the member it lies on, its start in member space and its
// length.
func (s Stripe) Nth(i int) (member int, local, n int64) {
	d := s.firstMember + int64(i)
	if d >= s.members {
		d -= s.members
	}
	local, n, _ = s.Run(int(d))
	return int(d), local, n
}

// Run reports the extent's run on member: its start in member space and
// its length. ok is false when the extent does not touch member.
func (s Stripe) Run(member int) (local, n int64, ok bool) {
	d := int64(member)
	i := d - s.firstMember // member's position in first-touch order
	if i < 0 {
		i += s.members
	}
	if i >= s.units {
		return 0, 0, false
	}
	row := s.firstRow // row of the member's first unit in the extent
	if d < s.firstMember {
		row++
	}
	local = row * s.unit
	if i == 0 {
		local += s.head
	}
	lrow := s.lastRow // row of the member's last unit in the extent
	if d > s.lastMember {
		lrow--
	}
	end := lrow*s.unit + s.unit
	if d == s.lastMember {
		end = lrow*s.unit + s.tail
	}
	return local, end - local, true
}

// raidPart is one leg of a RAID5 write's head/middle/tail decomposition.
type raidPart struct {
	off, size int64
	rmw       bool
}

// raid5Parts decomposes a RAID5 write into at most three legs: a partial
// head stripe (read-modify-write), full middle stripes (parity from new
// data alone), and a partial tail (read-modify-write). Returned by value
// so the Array hot path allocates nothing. Shared with ArrayClock.
func raid5Parts(offset, size, stripe int64) (parts [3]raidPart, n int) {
	head := offset % stripe
	if head != 0 {
		head = stripe - head
		if head > size {
			head = size
		}
		parts[n] = raidPart{off: offset, size: head, rmw: true}
		n++
		offset += head
		size -= head
	}
	middle := size - size%stripe
	if middle > 0 {
		parts[n] = raidPart{off: offset, size: middle}
		n++
		offset += middle
		size -= middle
	}
	if size > 0 {
		parts[n] = raidPart{off: offset, size: size, rmw: true}
		n++
	}
	return parts, n
}

// effectiveFailed reports the member a fault-schedule raid-member-lost
// window has lost at now, -1 when the array is healthy. RAID0 has no
// redundancy, so the effect does not apply to it.
func (a *Array) effectiveFailed(now units.Duration) int {
	if a.flt != nil && a.level == RAID5 {
		if m, ok := a.flt.LostMember(a.name, now, len(a.members), a.members[0].Capacity()); ok {
			return m
		}
	}
	return -1
}

// issue runs the extent's member runs against the member disks
// concurrently, one helper per touched member in first-touch order, and
// blocks the caller until all complete. Data is laid out round-robin in
// stripeUnit pieces; for RAID5 the parity rotation is approximated by
// spreading data over all members (which matches the aggregate bandwidth
// behaviour of rotating parity). failed is the member lost for this
// request (-1 when healthy), sampled once per logical request so a
// rebuild completing mid-request cannot split one access across both
// regimes.
func (a *Array) issue(p *des.Proc, s Stripe, write, rmw bool, failed int) {
	p.Fork(a.chunkName, s.Touched(), func(hp *des.Proc, i int) {
		disk, off, n := s.Nth(i)
		if disk == failed {
			if write {
				// Data destined for the lost member lands in
				// parity only: surviving members absorb an
				// extra parity update of the chunk size.
				alt := a.members[(disk+1)%len(a.members)]
				alt.Write(hp, off, n)
			} else {
				// Reconstruction: read the chunk's stripe
				// from every surviving member.
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
				// Read-modify-write: the old data (and
				// parity) must be read before the new
				// parity can be written.
				d.Read(hp, off, n)
			}
			d.Write(hp, off, n)
			if rmw {
				// Parity write on the rotating parity
				// member; charge it to the same disk's
				// queue as an extra op of equal size —
				// aggregate cost matches the classic
				// 4-I/O small-write penalty within 2x.
				d.Write(hp, off, n)
			}
		} else {
			d.Read(hp, off, n)
		}
	})
}

// fullStripe reports whether the extent covers whole stripes (so RAID5 can
// compute parity without reading).
func (a *Array) fullStripe(offset, size int64) bool {
	stripe := a.stripeUnit * int64(a.dataDisks())
	return offset%stripe == 0 && size%stripe == 0
}

func (a *Array) Read(p *des.Proc, offset, size int64) {
	a.queue.Acquire(p, 1)
	a.issue(p, NewStripe(a.stripeUnit, len(a.members), offset, size), false, false, a.effectiveFailed(p.Now()))
	a.queue.Release(1)
	a.ctr.ReadOps++
	a.ctr.ReadBytes += size
}

func (a *Array) Write(p *des.Proc, offset, size int64) {
	total := size
	a.queue.Acquire(p, 1)
	failed := a.effectiveFailed(p.Now())
	if a.level != RAID5 {
		a.issue(p, NewStripe(a.stripeUnit, len(a.members), offset, size), true, false, failed)
	} else {
		// RAID5: only the partial-stripe head and tail pay
		// read-modify-write; the aligned middle writes full stripes
		// with parity computed from the new data alone.
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

// Counters reports array-level logical counters. Member-level physical
// counters are available via Members().
func (a *Array) Counters() Counters {
	c := a.ctr
	for _, m := range a.members {
		mc := m.Counters()
		if mc.BusyTime > c.BusyTime {
			c.BusyTime = mc.BusyTime // busiest member bounds the array
		}
		c.Seeks += mc.Seeks
	}
	return c
}

// Members exposes the member disks (for device-level monitoring).
func (a *Array) Members() []*Disk { return a.members }

// PeakBandwidth estimates the array's streaming bandwidth for reads or
// writes — the quantity IOzone's sequential test converges to.
func (a *Array) PeakBandwidth(write bool) units.Bandwidth {
	per := a.members[0].params.SeqReadBW
	if write {
		per = a.members[0].params.SeqWriteBW
	}
	n := a.dataDisks()
	return units.Bandwidth(float64(per) * float64(n))
}
