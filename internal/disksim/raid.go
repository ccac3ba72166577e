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
	failed     int              // failed member index, -1 = healthy
	flt        *faults.Injector // nil on a healthy cluster
	chunks     []chunk          // stripeChunks' reused result buffer
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
		failed:     -1,
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

// chunk is one member-disk request derived from striping.
type chunk struct {
	disk   int
	offset int64
	size   int64
}

// stripeChunks splits a logical extent into per-member requests. Data is
// laid out round-robin in stripeUnit chunks across the data disks; for
// RAID5 the parity rotation is approximated by spreading data over all
// members (which matches the aggregate bandwidth behaviour of rotating
// parity). The result lives in the array's buffer until the next call:
// issue copies every chunk into its helper before it blocks (Spawn
// schedules and does not yield), so no other request can overwrite the
// chunks it is still reading.
func (a *Array) stripeChunks(offset, size int64) []chunk {
	a.chunks = stripeSplit(a.chunks[:0], a.stripeUnit, len(a.members), offset, size)
	return a.chunks
}

// stripeSplit appends the member requests of a logical extent to buf, one
// per touched member in first-touch order: the pure striping computation
// behind stripeChunks, shared with ArrayClock so the fast path derives the
// exact same member requests.
func stripeSplit(buf []chunk, stripeUnit int64, nmembers int, offset, size int64) []chunk {
	s := NewStripe(stripeUnit, nmembers, offset, size)
	for i := 0; i < nmembers; i++ {
		disk := int(s.firstMember) + i
		if disk >= nmembers {
			disk -= nmembers
		}
		local, n, ok := s.Run(disk)
		if !ok {
			break // the touched members are consecutive from the first
		}
		buf = append(buf, chunk{disk: disk, offset: local, size: n})
	}
	return buf
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

// effectiveFailed reports the member lost at now: a permanent Fail() if
// set, otherwise a fault-schedule raid-member-lost window. RAID0 has no
// redundancy, so schedule-driven loss does not apply to it (a permanent
// Fail on RAID0 already panics).
func (a *Array) effectiveFailed(now units.Duration) int {
	failed := a.failed
	if failed < 0 && a.flt != nil && a.level == RAID5 {
		if m, ok := a.flt.LostMember(a.name, now, len(a.members), a.members[0].Capacity()); ok {
			failed = m
		}
	}
	return failed
}

// issue runs the chunks against member disks concurrently and blocks the
// caller until all complete. failed is the member lost for this request
// (-1 when healthy), sampled once per logical request so a rebuild
// completing mid-request cannot split one access across both regimes.
func (a *Array) issue(p *des.Proc, chunks []chunk, write, rmw bool, failed int) {
	wg := des.NewWaitGroup(a.eng)
	wg.Add(len(chunks))
	for _, c := range chunks {
		c := c
		a.eng.Spawn(a.chunkName, func(hp *des.Proc) {
			if c.disk == failed {
				if write {
					// Data destined for the lost member lands in
					// parity only: surviving members absorb an
					// extra parity update of the chunk size.
					alt := a.members[(c.disk+1)%len(a.members)]
					alt.Write(hp, c.offset, c.size)
				} else {
					// Reconstruction: read the chunk's stripe
					// from every surviving member.
					rg := des.NewWaitGroup(a.eng)
					for i, m := range a.members {
						if i == failed {
							continue
						}
						m := m
						rg.Add(1)
						a.eng.Spawn(a.name+"/rebuild", func(rp *des.Proc) {
							m.Read(rp, c.offset, c.size)
							rg.Done()
						})
					}
					rg.Wait(hp)
				}
				wg.Done()
				return
			}
			d := a.members[c.disk]
			if write {
				if rmw {
					// Read-modify-write: the old data (and
					// parity) must be read before the new
					// parity can be written.
					d.Read(hp, c.offset, c.size)
				}
				d.Write(hp, c.offset, c.size)
				if rmw {
					// Parity write on the rotating parity
					// member; charge it to the same disk's
					// queue as an extra op of equal size —
					// aggregate cost matches the classic
					// 4-I/O small-write penalty within 2x.
					d.Write(hp, c.offset, c.size)
				}
			} else {
				d.Read(hp, c.offset, c.size)
			}
			wg.Done()
		})
	}
	wg.Wait(p)
}

// fullStripe reports whether the extent covers whole stripes (so RAID5 can
// compute parity without reading).
func (a *Array) fullStripe(offset, size int64) bool {
	stripe := a.stripeUnit * int64(a.dataDisks())
	return offset%stripe == 0 && size%stripe == 0
}

func (a *Array) Read(p *des.Proc, offset, size int64) {
	a.queue.Acquire(p, 1)
	a.issue(p, a.stripeChunks(offset, size), false, false, a.effectiveFailed(p.Now()))
	a.queue.Release(1)
	a.ctr.ReadOps++
	a.ctr.ReadBytes += size
}

func (a *Array) Write(p *des.Proc, offset, size int64) {
	total := size
	a.queue.Acquire(p, 1)
	failed := a.effectiveFailed(p.Now())
	if a.level != RAID5 {
		a.issue(p, a.stripeChunks(offset, size), true, false, failed)
	} else {
		// RAID5: only the partial-stripe head and tail pay
		// read-modify-write; the aligned middle writes full stripes
		// with parity computed from the new data alone.
		stripe := a.stripeUnit * int64(a.dataDisks())
		parts, n := raid5Parts(offset, size, stripe)
		for _, part := range parts[:n] {
			a.issue(p, a.stripeChunks(part.off, part.size), true, part.rmw, failed)
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

// Fail marks member i failed. RAID5 keeps serving in degraded mode: reads
// of chunks on the failed member reconstruct from every surviving member
// (a full-stripe read per lost chunk); writes skip the lost member.
// RAID0 panics — it has no redundancy.
func (a *Array) Fail(i int) {
	if a.level != RAID5 {
		panic(fmt.Sprintf("disksim: %s: RAID0 cannot lose a member", a.name))
	}
	if i < 0 || i >= len(a.members) {
		panic(fmt.Sprintf("disksim: %s: no member %d", a.name, i))
	}
	if a.failed >= 0 && a.failed != i {
		panic(fmt.Sprintf("disksim: %s: second failure (member %d already lost)", a.name, a.failed))
	}
	a.failed = i
}

// Degraded reports whether a member has failed.
func (a *Array) Degraded() bool { return a.failed >= 0 }

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

// JBOD is a set of independent disks: each file lives wholly on one disk,
// selected by the placement function (round-robin by file id in the PVFS
// configuration of the paper). JBOD itself is not a Device — callers pick a
// member per file — but it provides uniform construction and monitoring.
type JBOD struct {
	name  string
	disks []*Disk
}

// NewJBOD creates n disks with identical parameters.
func NewJBOD(eng *des.Engine, name string, n int, params DiskParams) *JBOD {
	if n <= 0 {
		panic(fmt.Sprintf("disksim: JBOD %q with %d disks", name, n))
	}
	j := &JBOD{name: name}
	for i := 0; i < n; i++ {
		j.disks = append(j.disks, NewDisk(eng, fmt.Sprintf("%s/d%d", name, i), params))
	}
	return j
}

// Disk returns member i.
func (j *JBOD) Disk(i int) *Disk { return j.disks[i] }

// Len reports the member count.
func (j *JBOD) Len() int { return len(j.disks) }

// Name reports the set name.
func (j *JBOD) Name() string { return j.name }
