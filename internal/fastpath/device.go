package fastpath

import (
	"iophases/internal/cluster"
	"iophases/internal/disksim"
	"iophases/internal/units"
)

// serverSim is the analytic model of one storage target: the device clock
// plus, when the spec configures a write-back cache, the client-visible
// cache state and the background flusher's completion schedule. Device
// service times come exclusively from the disksim clocks (a sanctioned
// fpfidelity seam); this file never computes a duration of its own.
//
// With a single rank the flusher is the only concurrent actor in the whole
// simulation, and its behavior is fully determined: it gathers elevator
// chunks from the dirty ledger and writes them back-to-back to the device,
// so every completion time follows arithmetically from the previous one.
// serverSim replays that schedule lazily — completions are applied when the
// client's clock passes them — which reproduces the DES interleaving
// exactly except at virtual-time ties, where event order would depend on
// scheduling sequence numbers the walker does not track. Ties, cache
// pressure (a deposit larger than free space, which would park the client)
// and device reads racing a flush all set bail instead of guessing.
type serverSim struct {
	dev disksim.DeviceClock // &head or &array

	hasCache bool
	capacity int64
	memBW    units.Bandwidth
	level    int64 // dirty bytes: ledger plus the in-flight chunk

	fBusy bool           // a gathered chunk is being written to the device
	fDone units.Duration // its completion time
	fN    int64          // its size

	bail bool

	// The device clocks and the cache state, reset in place by reset so
	// their buffers carry over from run to run.
	head   disksim.HeadClock
	array  disksim.ArrayClock
	ledger disksim.CacheLedger // dirty extents not yet gathered
	recent disksim.RecentIndex
}

// reset readies the analytic target for a spec's storage side: every
// scalar field back to zero, the device clock and cache state back to the
// state cluster.Build's freshly built devices start in.
func (s *serverSim) reset(st cluster.StorageSpec) {
	*s = serverSim{head: s.head, array: s.array, ledger: s.ledger, recent: s.recent}
	s.dev = s.deviceClock(st)
	if c := st.Cache; c != nil {
		s.hasCache = true
		s.capacity = c.Capacity
		s.memBW = c.MemBW
		s.ledger.Reset(c.Chunk)
		s.recent.Reset(c.Capacity)
	}
}

// deviceClock mirrors cluster.Build's per-I/O-node device assembly: RAID
// array, JBOD-as-RAID0 concatenation, or a bare disk.
func (s *serverSim) deviceClock(st cluster.StorageSpec) disksim.DeviceClock {
	switch {
	case st.RAID != nil:
		s.array.Reset(st.RAID.Level, st.DisksPerNode, st.RAID.StripeUnit, st.Disk)
		return &s.array
	case st.DisksPerNode > 1:
		s.array.Reset(disksim.RAID0, st.DisksPerNode, 64*units.GiB, st.Disk)
		return &s.array
	default:
		s.head.Reset(st.Disk)
		return &s.head
	}
}

// advance applies every flusher completion strictly before until. A
// completion landing exactly at until is a virtual-time tie: whether it
// fires before or after the client's next action depends on event sequence
// numbers, so the walker bails rather than pick an order.
func (s *serverSim) advance(until units.Duration) {
	for s.fBusy && s.fDone < until {
		s.complete()
	}
	if s.fBusy && s.fDone == until {
		s.bail = true
	}
}

// complete applies the in-flight chunk's completion and immediately starts
// the next gather if dirty data remains — the flusher loop's zero-gap
// chaining. Returns the completion time for drain bookkeeping.
func (s *serverSim) complete() units.Duration {
	t := s.fDone
	s.level -= s.fN
	s.fBusy = false
	if s.ledger.Dirty() {
		s.startFlusher(t)
	}
	return t
}

// startFlusher gathers the next elevator chunk at time t and schedules its
// device write, exactly as the spawned flusher process does.
func (s *serverSim) startFlusher(t units.Duration) {
	off, n := s.ledger.Gather()
	s.fN = n
	s.fBusy = true
	s.fDone = t + s.dev.OpTime(off, n, true)
}

// write advances the clock through one server-side write landing at time t
// and returns the completion time. Without a cache the client process
// performs the device write itself; with one, the deposit is absorbed at
// memory speed and the flusher is kicked — unless free space cannot take
// the whole deposit, which in the DES splits the write and parks the
// client behind flush wakeups (bail).
func (s *serverSim) write(t units.Duration, offset, size int64) units.Duration {
	if !s.hasCache {
		return t + s.dev.OpTime(offset, size, true)
	}
	s.advance(t)
	if s.bail {
		return t
	}
	if s.capacity-s.level < size {
		s.bail = true // cache pressure: the DES would split and park
		return t
	}
	end := t + units.TransferTime(size, s.memBW)
	// Completions inside the memcpy window fire before the deposit is
	// recorded, so they gather from the ledger as it stands now.
	s.advance(end)
	if s.bail {
		return end
	}
	s.level += size
	s.ledger.Add(offset, size)
	s.recent.Remember(offset, size)
	if !s.fBusy && s.ledger.Dirty() {
		s.startFlusher(end)
	}
	return end
}

// read advances the clock through one server-side read landing at time t.
// Recent-index hits cost a memory copy; misses go to the device, but only
// when the cache is fully clean — a device read overlapping a flush would
// contend on the member queues, which only the DES prices.
func (s *serverSim) read(t units.Duration, offset, size int64) units.Duration {
	if !s.hasCache {
		return t + s.dev.OpTime(offset, size, false)
	}
	s.advance(t)
	if s.bail {
		return t
	}
	if s.recent.Hit(offset, size) {
		return t + units.TransferTime(size, s.memBW)
	}
	if s.fBusy || s.level > 0 {
		s.bail = true
		return t
	}
	return t + s.dev.OpTime(offset, size, false)
}

// drain runs the flusher to completion and returns when the last dirty
// byte reaches the device (fsync). Already-clean caches return t: the DES
// Drain loop exits without parking.
func (s *serverSim) drain(t units.Duration) units.Duration {
	if !s.hasCache {
		return t
	}
	end := t
	for s.fBusy {
		if done := s.complete(); done > end {
			end = done
		}
	}
	if s.level != 0 {
		// Dirty data with no flush in flight would mean a deposit never
		// kicked the flusher — impossible by construction; bail rather
		// than report a time that cannot be right.
		s.bail = true
	}
	return end
}

// invalidate drops the recently-written index (DropCaches).
func (s *serverSim) invalidate() {
	if s.hasCache {
		s.recent.Invalidate()
	}
}
