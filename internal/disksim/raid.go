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

// Array is a striped disk array with a single controller queue. A request
// runs one leg per touched member, all at once, so a full-stripe access
// genuinely overlaps the spindles and the per-disk counters reflect real
// member activity (Figure 8 samples them). A leg is a fixed list of
// member-disk requests, so it runs as event callbacks (see leg) while the
// caller waits.
type Array struct {
	eng        *des.Engine
	name       string
	level      RAIDLevel
	members    []*Disk
	stripeUnit int64
	queue      *des.Resource
	ctr        Counters
	flt        *faults.Injector // nil on a healthy cluster
	// free holds the request states not in flight (see takeReq).
	free []*arrayReq
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

// Read serves a read, blocking the process.
func (a *Array) Read(p *des.Proc, offset, size int64) { a.access(p, offset, size, false) }

// Write serves a write, blocking the process.
func (a *Array) Write(p *des.Proc, offset, size int64) { a.access(p, offset, size, true) }

// access serves a process's request: it waits for the controller, then
// parks while each part's legs run, and resumes after the last leg of
// each part.
func (a *Array) access(p *des.Proc, offset, size int64, write bool) {
	a.queue.Acquire(p, 1)
	r := a.takeReq(offset, size, write)
	r.caller = p
	r.plan()
	for r.next() {
		p.Park("issue", a.name)
	}
	r.end()
}

// AccessThen serves a request without a process: it waits for the
// controller in the same FIFO as a process's, and where the process would
// resume between parts a zero-delay event continues it; done runs inside
// the event that ends its last part, where Read or Write would return.
func (a *Array) AccessThen(offset, size int64, write bool, done func()) {
	r := a.takeReq(offset, size, write)
	r.done = done
	a.queue.AcquireThen(1, r.resumeFn)
}

// arrayReq is the state of one request in flight: what it asks for, the
// process parked on it or its completion callback, its parts (the RAID5
// head, middle and tail of a write, otherwise the whole extent) and one
// leg per member, reused from request to request.
type arrayReq struct {
	a         *Array
	caller    *des.Proc // a blocking request's process
	done      func()    // a callback request's completion
	off, size int64
	write     bool
	failed    int // the member lost for the whole request, -1 when healthy
	parts     [3]raidPart
	nparts    int    // 0 until plan
	part      int    // the next part to issue
	left      int    // legs of the current part not yet finished
	reading   int    // the rebuild leg's survivor reads not yet finished
	legs      []leg  // one per member, in first-touch order
	reads     []leg  // the survivor reads of a rebuild leg, made on first use
	joinFn    func() // join, bound once
	resumeFn  func() // resume, bound once
}

// takeReq returns a request state from the free list, or a new one. The
// free list holds as many states as requests were ever in flight at once:
// the four the controller admits and the callback requests queued for it.
func (a *Array) takeReq(offset, size int64, write bool) *arrayReq {
	var r *arrayReq
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		r = &arrayReq{a: a}
		r.joinFn, r.resumeFn = r.join, r.resume
		r.legs = r.newLegs(len(a.members))
	}
	r.off, r.size, r.write = offset, size, write
	return r
}

// plan samples the lost member, once per request so that a rebuild
// completing mid-request cannot split one access across both regimes, and
// lays out the parts. RAID5 writes only the partial-stripe head and tail
// with read-modify-write; the aligned middle writes full stripes with
// parity computed from the new data alone.
func (r *arrayReq) plan() {
	a := r.a
	r.failed = a.effectiveFailed(a.eng.Now())
	if r.write && a.level == RAID5 {
		r.parts, r.nparts = raid5Parts(r.off, r.size, a.stripeUnit*int64(a.dataDisks()))
	} else {
		r.parts[0], r.nparts = raidPart{off: r.off, size: r.size}, 1
	}
	r.part = 0
}

// next issues the next part that touches a member and reports whether it
// did; false means the request is done.
func (r *arrayReq) next() bool {
	a := r.a
	for r.part < r.nparts {
		part := r.parts[r.part]
		r.part++
		if r.issue(NewStripe(a.stripeUnit, len(a.members), part.off, part.size), part.rmw) {
			return true
		}
	}
	return false
}

// resume runs a callback request once the controller admits it and
// after each part: it issues the next part or ends the request.
func (r *arrayReq) resume() {
	if r.nparts == 0 {
		r.plan()
	}
	if !r.next() {
		r.end()
	}
}

// end releases the controller, accounts the request and returns its state
// to the free list, then runs a callback request's completion.
func (r *arrayReq) end() {
	a := r.a
	a.queue.Release(1)
	if r.write {
		a.ctr.WriteOps++
		a.ctr.WriteBytes += r.size
	} else {
		a.ctr.ReadOps++
		a.ctr.ReadBytes += r.size
	}
	done := r.done
	r.caller, r.done, r.nparts = nil, nil, 0
	a.free = append(a.free, r)
	if done != nil {
		done()
	}
}

// issue starts one leg per member the part touches, in first-touch order,
// and reports whether there were any. Data is laid out round-robin in
// stripeUnit pieces; for RAID5 the parity rotation is approximated by
// spreading data over all members (which matches the aggregate bandwidth
// behaviour of rotating parity).
//
// Each leg starts from its own zero-delay event, and the last to finish
// resumes the caller or, for a callback request, schedules resume, so
// every event comes at the virtual time and in the order that a helper
// process per leg (Proc.Fork) would give.
func (r *arrayReq) issue(s Stripe, rmw bool) bool {
	n := s.Touched()
	if n == 0 {
		return false
	}
	a := r.a
	r.left = n
	for i := 0; i < n; i++ {
		disk, off, size := s.Nth(i)
		l := &r.legs[i]
		l.disk, l.off, l.n, l.at = a.members[disk], off, size, 0
		switch {
		case disk == r.failed && r.write:
			// Data destined for the lost member lands in parity
			// only: surviving members absorb an extra parity
			// update of the chunk size.
			l.disk, l.ops = a.members[(disk+1)%len(a.members)], writeOnly
		case disk == r.failed:
			// Reconstruction: read the chunk's stripe from every
			// surviving member.
			l.disk, l.lost = nil, r.failed
		case r.write && rmw:
			// Read-modify-write: the old data (and parity) must be
			// read before the new parity can be written. The
			// parity write on the rotating parity member is
			// charged to the same disk's queue as an extra op of
			// equal size — aggregate cost matches the classic
			// 4-I/O small-write penalty within 2x.
			l.ops = readModifyWrite
		case r.write:
			l.ops = writeOnly
		default:
			l.ops = readOnly
		}
		a.eng.Schedule(0, l.stepFn)
	}
	return true
}

// The request lists of a leg on a live member: false reads, true writes.
var (
	readOnly        = []bool{false}
	writeOnly       = []bool{true}
	readModifyWrite = []bool{false, true, true}
)

// leg is one member's share of an array request. It needs no stack of its
// own: it is a fixed list of requests on one member disk, each issued from
// inside the event that completes the one before (Disk.AccessThen), or,
// for a rebuild read, a fan-out of single reads to the survivors. Only one
// member is lost at a time, so a request has at most one rebuild leg.
type leg struct {
	r        *arrayReq
	disk     *Disk // nil for a rebuild leg
	off, n   int64
	ops      []bool // the requests in order: false reads, true writes
	at       int    // the next request to issue
	lost     int    // a rebuild leg's lost member
	survivor bool   // one of a rebuild leg's survivor reads
	stepFn   func() // step, bound once so that a leg allocates nothing
}

// newLegs makes n legs of r with their callbacks bound.
func (r *arrayReq) newLegs(n int) []leg {
	legs := make([]leg, n)
	for i := range legs {
		legs[i].r = r
		legs[i].stepFn = legs[i].step
	}
	return legs
}

// join counts a finished leg. After the last, the request goes on from a
// zero-delay event, where a process's resume would come: the caller's, or
// resume's for a callback request.
func (r *arrayReq) join() {
	if r.left--; r.left > 0 {
		return
	}
	if r.caller != nil {
		r.a.eng.Unpark(r.caller)
	} else {
		r.a.eng.Schedule(0, r.resumeFn)
	}
}

// step runs at the leg's zero-delay start and inside the event that
// completes each of its requests: it issues the next request, or finishes
// the leg after the last. A rebuild leg starts one read per survivor, in
// member order, each from a zero-delay event of its own.
func (l *leg) step() {
	r := l.r
	switch {
	case l.disk == nil:
		r.rebuild(l.lost, l.off, l.n)
	case l.at < len(l.ops):
		write := l.ops[l.at]
		l.at++
		l.disk.AccessThen(l.off, l.n, write, l.stepFn)
	case !l.survivor:
		r.join()
	default:
		// The rebuild leg finishes at a zero-delay event after its
		// last survivor read, as a helper resumed from its fork.
		if r.reading--; r.reading == 0 {
			r.a.eng.Schedule(0, r.joinFn)
		}
	}
}

// rebuild starts the reads of the lost member's chunk [off, off+n) from
// every survivor.
func (r *arrayReq) rebuild(lost int, off, n int64) {
	members := r.a.members
	if r.reads == nil {
		r.reads = r.newLegs(len(members) - 1)
		for i := range r.reads {
			r.reads[i].ops, r.reads[i].survivor = readOnly, true
		}
	}
	r.reading = len(r.reads)
	for i := range r.reads {
		m := i
		if m >= lost {
			m++
		}
		rl := &r.reads[i]
		rl.disk, rl.off, rl.n, rl.at = members[m], off, n, 0
		r.a.eng.Schedule(0, rl.stepFn)
	}
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
