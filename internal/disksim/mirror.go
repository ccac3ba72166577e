package disksim

import "iophases/internal/units"

// This file exports pure "clock" mirrors of the simulated devices for the
// analytic fast path (internal/fastpath). A clock computes exactly the
// virtual-time cost the DES device would charge for the same request
// sequence — same formulas, same stateful head bookkeeping, same integer
// arithmetic through units.TransferTime — without an engine, a process or
// an event queue. The guarantee is structural: each clock calls the very
// functions the device calls (HeadClock.ServiceTime, Stripe, raid5Parts),
// so a formula change in the device is automatically a formula change in
// the mirror; the cache needs no mirror, as WriteCache's own CacheLedger
// is exported. Divergence is a bug; FastPath=verify runs both and panics.

// HeadClock is the stateful service-time model of one disk spindle: head
// position (sequential vs seek), read/write turnaround, per-request
// overhead. Disk delegates its timing to an embedded HeadClock, and the
// fast path advances a standalone one through the same request sequence.
// Reset readies one for use.
type HeadClock struct {
	params    DiskParams
	lastEnd   int64 // file offset where the previous request finished
	lastWrite bool  // direction of the previous request
	started   bool
}

// Reset puts the clock in a new disk's initial (unstarted) state.
func (h *HeadClock) Reset(params DiskParams) {
	*h = HeadClock{params: params, lastEnd: -1}
}

// ServiceTime computes the duration of one request and updates head state.
// seek reports whether the request paid a seek (for counter mirroring).
func (h *HeadClock) ServiceTime(offset, size int64, write bool) (t units.Duration, seek bool) {
	bw := h.params.SeqReadBW
	if write {
		bw = h.params.SeqWriteBW
	}
	t = h.params.Overhead + units.TransferTime(size, bw)
	dist := offset - h.lastEnd
	if dist < 0 {
		dist = -dist
	}
	if h.lastEnd < 0 || dist > h.params.NearThreshold {
		t += h.params.SeekTime
		seek = true
	}
	if h.started && write != h.lastWrite {
		t += h.params.Turnaround
	}
	h.lastEnd = offset + size
	h.lastWrite = write
	h.started = true
	return t, seek
}

// DeviceClock computes the caller-observed service time of uncontended
// requests against a device. Implemented by HeadClock (single disk) and
// ArrayClock; the fast path drives whichever matches the cluster spec.
type DeviceClock interface {
	// OpTime reports the blocking time of one logical read or write and
	// advances the device state exactly as the DES device would.
	OpTime(offset, size int64, write bool) units.Duration
}

// OpTime implements DeviceClock for a single uncontended disk: with an
// empty queue, Disk.Read/Write block the caller for exactly the service
// time (acquire and release are free when nothing is queued).
func (h *HeadClock) OpTime(offset, size int64, write bool) units.Duration {
	if size == 0 {
		// Disk.Read/Write return before touching head state.
		return 0
	}
	t, _ := h.ServiceTime(offset, size, write)
	return t
}

// ArrayClock mirrors Array timing for a contention-free caller: every
// member request of one logical op starts at the same instant (the DES
// starts all member legs at the issuing time), so the op's blocking time
// is the maximum member service time; RAID5 sub-stripe writes decompose
// into head/middle/tail exactly as Array.Write does. Reset readies one
// for use.
type ArrayClock struct {
	level      RAIDLevel
	stripeUnit int64
	members    []HeadClock
}

// Reset puts the clock in the initial state of a healthy array of n
// identical members. It keeps the clock's member buffer, so a reused
// clock prices a new array without allocating.
func (a *ArrayClock) Reset(level RAIDLevel, n int, stripeUnit int64, disk DiskParams) {
	members := a.members[:0]
	for i := 0; i < n; i++ {
		members = append(members, HeadClock{params: disk, lastEnd: -1})
	}
	*a = ArrayClock{level: level, stripeUnit: stripeUnit, members: members}
}

// dataDisks mirrors Array.dataDisks.
func (a *ArrayClock) dataDisks() int {
	if a.level == RAID5 {
		return len(a.members) - 1
	}
	return len(a.members)
}

// issueTime mirrors Array.issue on a healthy array: all member legs
// start at the same virtual instant against distinct member queues,
// so each member's (sequential) service chain starts immediately and the
// caller unblocks at the slowest member.
func (a *ArrayClock) issueTime(s Stripe, write, rmw bool) units.Duration {
	var max units.Duration
	for i := 0; i < s.Touched(); i++ {
		disk, off, n := s.Nth(i)
		m := &a.members[disk]
		var t units.Duration
		if write && rmw {
			// Read-modify-write: read old data, write data, write parity —
			// three sequential member ops, same order as Array.issue.
			t1, _ := m.ServiceTime(off, n, false)
			t2, _ := m.ServiceTime(off, n, true)
			t3, _ := m.ServiceTime(off, n, true)
			t = t1 + t2 + t3
		} else {
			t, _ = m.ServiceTime(off, n, write)
		}
		if t > max {
			max = t
		}
	}
	return max
}

// OpTime implements DeviceClock, mirroring Array.Read / Array.Write on a
// healthy array with an idle controller queue.
func (a *ArrayClock) OpTime(offset, size int64, write bool) units.Duration {
	if size <= 0 {
		return 0
	}
	if !write {
		return a.issueTime(NewStripe(a.stripeUnit, len(a.members), offset, size), false, false)
	}
	if a.level != RAID5 {
		return a.issueTime(NewStripe(a.stripeUnit, len(a.members), offset, size), true, false)
	}
	stripe := a.stripeUnit * int64(a.dataDisks())
	parts, n := raid5Parts(offset, size, stripe)
	var total units.Duration
	for _, part := range parts[:n] {
		total += a.issueTime(NewStripe(a.stripeUnit, len(a.members), part.off, part.size), true, part.rmw)
	}
	return total
}
