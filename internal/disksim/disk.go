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

// Disk is a single spindle with a FIFO request queue.
type Disk struct {
	name   string
	params DiskParams
	queue  *des.Resource
	head   HeadClock // head-position timing state (shared with mirror.go)
	ctr    Counters
	met    diskMetrics
	flt    *faults.Injector // nil on a healthy cluster
}

// NewDisk creates a disk on the engine.
func NewDisk(eng *des.Engine, name string, params DiskParams) *Disk {
	if params.SeqReadBW <= 0 || params.SeqWriteBW <= 0 {
		panic(fmt.Sprintf("disksim: disk %q without bandwidth", name))
	}
	return &Disk{
		name:   name,
		params: params,
		queue:  des.NewResource(eng, "disk:"+name, 1),
		head:   HeadClock{params: params, lastEnd: -1},
		met:    newDiskMetrics(),
		flt:    faults.For(eng),
	}
}

func (d *Disk) Name() string    { return d.name }
func (d *Disk) Capacity() int64 { return d.params.CapacityB }

// serviceTime computes the duration of one request and updates head state.
// The timing model lives in HeadClock so the analytic fast path advances
// the identical formulas; this wrapper only keeps the seek counters.
func (d *Disk) serviceTime(offset, size int64, write bool) units.Duration {
	t, seek := d.head.ServiceTime(offset, size, write)
	if seek {
		d.ctr.Seeks++
		d.met.seeks.Inc()
	}
	return t
}

func (d *Disk) Read(p *des.Proc, offset, size int64) {
	if size == 0 {
		// A zero-byte read moves no data and, on a real device, never
		// leaves the submitting host: no seek, no counter, no histogram
		// sample (the seed charged a full seek here and polluted
		// disksim/read_size with zeros).
		return
	}
	d.acquire(p)
	t := d.serviceTime(offset, size, false)
	if d.flt != nil {
		t = d.flt.DiskTime(d.name, p.Now(), t)
	}
	p.Sleep(t)
	d.queue.Release(1)
	d.ctr.ReadOps++
	d.ctr.ReadBytes += size
	d.ctr.BusyTime += t
	d.met.readOps.Inc()
	d.met.readBytes.Add(size)
	d.met.readSize.Observe(size)
}

func (d *Disk) Write(p *des.Proc, offset, size int64) {
	if size == 0 {
		return
	}
	d.acquire(p)
	t := d.serviceTime(offset, size, true)
	if d.flt != nil {
		t = d.flt.DiskTime(d.name, p.Now(), t)
	}
	p.Sleep(t)
	d.queue.Release(1)
	d.ctr.WriteOps++
	d.ctr.WriteBytes += size
	d.ctr.BusyTime += t
	d.met.writeOps.Inc()
	d.met.writeBytes.Add(size)
	d.met.writeSize.Observe(size)
}

// acquire takes the request queue, observing the virtual time spent waiting
// behind other requests. The Now() reads happen only when telemetry is on,
// so the disabled path is a single branch around a plain Acquire.
func (d *Disk) acquire(p *des.Proc) {
	if d.met.queueWait == nil {
		d.queue.Acquire(p, 1)
		return
	}
	before := p.Now()
	d.queue.Acquire(p, 1)
	d.met.queueWait.Observe(int64((p.Now() - before) / units.Microsecond))
}

func (d *Disk) Counters() Counters { return d.ctr }

// StreamRate reports the sustained sequential rate for the direction.
func (d *Disk) StreamRate(write bool) units.Bandwidth {
	if write {
		return d.params.SeqWriteBW
	}
	return d.params.SeqReadBW
}
