// Package disksim models block storage devices: rotational disks, RAID
// arrays (JBOD as a RAID0 striped by JBODStripe) and write-back caches.
// The service model is first-order but mechanism-faithful: sequential
// streaming runs at the platter rate, discontiguous accesses pay seek
// time, RAID0/5 scale with member count, RAID5 sub-stripe writes pay the
// read-modify-write penalty, and a write-back cache absorbs bursts at
// memory speed while draining at device speed. These are the mechanisms
// behind the BW_PK / BW_MD split that the paper's Tables IX and X
// measure.
package disksim

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/faults"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// diskMetrics bundles the aggregate run-telemetry handles shared by every
// Disk. Handles are nil unless telemetry was enabled before the disk was
// built, so the disabled path costs one branch per counter — no map lookups
// on the request path (pinned by the allocs/op gate in bench_test.go).
type diskMetrics struct {
	readOps    *obs.Counter
	writeOps   *obs.Counter
	readBytes  *obs.Counter
	writeBytes *obs.Counter
	seeks      *obs.Counter
	readSize   *obs.Histogram
	writeSize  *obs.Histogram
	queueWait  *obs.Histogram // microseconds of virtual time spent queued
}

func newDiskMetrics() diskMetrics {
	h := obs.Hot()
	if h == nil {
		return diskMetrics{}
	}
	return diskMetrics{
		readOps:    h.Counter("disksim/read_ops"),
		writeOps:   h.Counter("disksim/write_ops"),
		readBytes:  h.Counter("disksim/read_bytes"),
		writeBytes: h.Counter("disksim/write_bytes"),
		seeks:      h.Counter("disksim/seeks"),
		readSize:   h.Histogram("disksim/read_size"),
		writeSize:  h.Histogram("disksim/write_size"),
		queueWait:  h.Histogram("disksim/queue_wait_us"),
	}
}

// Counters are cumulative per-device activity counters, the simulator's
// equivalent of /proc/diskstats (what `iostat -x` reads).
type Counters struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	BusyTime   units.Duration
	Seeks      int64
}

// SectorsRead reports read volume in 512-byte sectors, the unit iostat and
// Figure 8 of the paper use.
func (c Counters) SectorsRead() int64 { return c.ReadBytes / 512 }

// SectorsWritten reports write volume in 512-byte sectors.
func (c Counters) SectorsWritten() int64 { return c.WriteBytes / 512 }

// Device is anything that can service byte-addressed reads and writes in
// virtual time.
type Device interface {
	// Read services a read of size bytes at offset, blocking the process.
	Read(p *des.Proc, offset, size int64)
	// Write services a write of size bytes at offset, blocking the process.
	Write(p *des.Proc, offset, size int64)
	// Counters reports cumulative activity.
	Counters() Counters
	// Name identifies the device in reports.
	Name() string
	// Capacity reports the device size in bytes.
	Capacity() int64
}

// DiskParams describe a single rotational disk.
type DiskParams struct {
	SeqReadBW  units.Bandwidth // sustained sequential read rate
	SeqWriteBW units.Bandwidth // sustained sequential write rate
	SeekTime   units.Duration  // average seek + rotational latency
	Overhead   units.Duration  // per-request command overhead
	CapacityB  int64           // usable capacity in bytes
	// NearThreshold is the offset discontinuity below which a request is
	// still treated as sequential (track buffer / short seek).
	NearThreshold int64
	// Turnaround is the extra cost of switching between reading and
	// writing (write-cache flush, lost rotation). It is what makes an
	// interleaved write-read stream slower than the average of a pure
	// write stream and a pure read stream — the effect behind the
	// paper's ≈50% characterization error on MADBench2's phase 3.
	Turnaround units.Duration
}

// SATA7200 returns parameters for a ~2008-era 7200 rpm SATA disk, the class
// of device in the Aohyper cluster's compute and PVFS I/O nodes.
func SATA7200(capacity int64) DiskParams {
	return DiskParams{
		SeqReadBW:     units.MBps(78),
		SeqWriteBW:    units.MBps(72),
		SeekTime:      8500 * units.Microsecond,
		Overhead:      120 * units.Microsecond,
		CapacityB:     capacity,
		NearThreshold: 1 * units.MiB,
		Turnaround:    6 * units.Millisecond,
	}
}

// SAS15K returns parameters for a 15k rpm SAS disk, the class in
// configuration C's IBM x3550 nodes and Finisterrae's SFS20 cabins.
func SAS15K(capacity int64) DiskParams {
	return DiskParams{
		SeqReadBW:     units.MBps(120),
		SeqWriteBW:    units.MBps(110),
		SeekTime:      5500 * units.Microsecond,
		Overhead:      80 * units.Microsecond,
		CapacityB:     capacity,
		NearThreshold: 1 * units.MiB,
		Turnaround:    3 * units.Millisecond,
	}
}

// Disk is a single spindle with a FIFO request queue. A process's Read or
// Write blocks it until the request completes; an array leg's request
// (do) waits in the same queue with a completion callback and no process.
// Both go through begin and end, so the timing and the accounting exist
// once.
type Disk struct {
	name   string
	params DiskParams
	eng    *des.Engine
	queue  *des.Resource
	head   HeadClock // head-position timing state (shared with mirror.go)
	ctr    Counters
	met    diskMetrics
	flt    *faults.Injector // nil on a healthy cluster
	// cbs holds the callback requests. It is made at the first one: most
	// disks of a large cluster never see one, and a disk costs what it
	// did before callbacks until then.
	cbs *callbacks
}

// callbacks is a disk's callback requests: pending[next:] wait for the
// queue in arrival order, which is the order a one-unit queue admits them
// in, and cur holds it. Its functions are the disk's start and finish,
// bound once, so a request allocates nothing.
type callbacks struct {
	pending           []diskReq
	next              int
	cur               diskReq
	startFn, finishFn func()
}

// diskReq is a callback request: its extent, when it joined the queue,
// its service time once it holds the queue, and what to run on
// completion.
type diskReq struct {
	offset, size int64
	write        bool
	queued, t    units.Duration
	done         func()
}

// NewDisk creates a disk on the engine.
func NewDisk(eng *des.Engine, name string, params DiskParams) *Disk {
	if params.SeqReadBW <= 0 || params.SeqWriteBW <= 0 {
		panic(fmt.Sprintf("disksim: disk %q without bandwidth", name))
	}
	return &Disk{
		name:   name,
		params: params,
		eng:    eng,
		queue:  des.NewResource(eng, "disk:"+name, 1),
		head:   HeadClock{params: params, lastEnd: -1},
		met:    newDiskMetrics(),
		flt:    faults.For(eng),
	}
}

func (d *Disk) Name() string    { return d.name }
func (d *Disk) Capacity() int64 { return d.params.CapacityB }

// Read services a read, blocking the process. A zero-byte request moves
// no data and, on a real device, never leaves the submitting host: Read,
// Write and do return at once, with no seek, no counter and no histogram
// sample (the seed charged a full seek here and polluted
// disksim/read_size with zeros).
func (d *Disk) Read(p *des.Proc, offset, size int64) { d.access(p, offset, size, false) }

// Write services a write, blocking the process.
func (d *Disk) Write(p *des.Proc, offset, size int64) { d.access(p, offset, size, true) }

// access serves a process's request: it queues, sleeps for the service
// time and returns once the disk is released.
func (d *Disk) access(p *des.Proc, offset, size int64, write bool) {
	if size == 0 {
		return
	}
	queued := p.Now()
	d.queue.Acquire(p, 1)
	t := d.begin(offset, size, write, queued)
	p.Sleep(t)
	d.end(size, write, t)
}

// do serves a request without a process: it waits in the queue like a
// process's, and done runs inside the event that completes it, where the
// process's Sleep would return. Array runs its member legs this way.
func (d *Disk) do(offset, size int64, write bool, done func()) {
	if size == 0 {
		done()
		return
	}
	q := d.cbs
	if q == nil {
		q = &callbacks{}
		q.startFn, q.finishFn = d.start, d.finish
		d.cbs = q
	}
	q.pending = append(q.pending, diskReq{offset: offset, size: size, write: write, queued: d.eng.Now(), done: done})
	d.queue.AcquireThen(1, q.startFn)
}

// start serves the oldest callback request once the queue admits it.
func (d *Disk) start() {
	q := d.cbs
	r := q.pending[q.next]
	q.pending[q.next] = diskReq{}
	if q.next++; q.next == len(q.pending) {
		q.pending, q.next = q.pending[:0], 0
	}
	r.t = d.begin(r.offset, r.size, r.write, r.queued)
	q.cur = r
	if r.t == 0 {
		d.finish() // as Sleep(0) returns at once
		return
	}
	d.eng.Schedule(r.t, q.finishFn)
}

// finish completes the callback request in service and runs its callback.
func (d *Disk) finish() {
	q := d.cbs
	r := q.cur
	q.cur = diskReq{}
	d.end(r.size, r.write, r.t)
	r.done()
}

// begin starts a request that has just been admitted: it samples the time
// spent queued since queued and returns the service time, advancing the
// head state. The timing model lives in HeadClock so the analytic fast
// path advances the identical formulas.
func (d *Disk) begin(offset, size int64, write bool, queued units.Duration) units.Duration {
	now := d.eng.Now()
	if h := d.met.queueWait; h != nil {
		h.Observe(int64((now - queued) / units.Microsecond))
	}
	t, seek := d.head.ServiceTime(offset, size, write)
	if seek {
		d.ctr.Seeks++
		d.met.seeks.Inc()
	}
	if d.flt != nil {
		t = d.flt.DiskTime(d.name, now, t)
	}
	return t
}

// end releases the queue after a request of service time t and accounts
// it.
func (d *Disk) end(size int64, write bool, t units.Duration) {
	d.queue.Release(1)
	if write {
		d.ctr.WriteOps++
		d.ctr.WriteBytes += size
		d.met.writeOps.Inc()
		d.met.writeBytes.Add(size)
		d.met.writeSize.Observe(size)
	} else {
		d.ctr.ReadOps++
		d.ctr.ReadBytes += size
		d.met.readOps.Inc()
		d.met.readBytes.Add(size)
		d.met.readSize.Observe(size)
	}
	d.ctr.BusyTime += t
}

func (d *Disk) Counters() Counters { return d.ctr }

// StreamRate reports the sustained sequential rate for the direction.
func (d *Disk) StreamRate(write bool) units.Bandwidth {
	if write {
		return d.params.SeqWriteBW
	}
	return d.params.SeqReadBW
}
