package fsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/faults"
	"iophases/internal/netsim"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// forkFile serves a File's reads and writes the way the simulator did
// before chunks became event callbacks: one Fork helper per chunk, each
// running the blocking chunk loop (forkChunkOp) against Fabric.Send and
// the devices' Read and Write. It is the oracle of
// TestChunkLegsMatchForkHelpers; Read and Write are File's, with
// runChunks swapped.
type forkFile struct{ *File }

func (f forkFile) Write(p *des.Proc, client string, offset, size int64) error {
	fs := f.fs
	if size == 0 {
		return nil
	}
	fs.met.writeSize.Observe(size)
	meta := fs.files[f.name]
	chunks := fs.stripeExtent(nil, len(meta.targets), offset, size)
	if err := forkRunChunks(fs, p, client, meta.targets, chunks, true); err != nil {
		return err
	}
	if end := offset + size; end > meta.size {
		meta.size = end
	}
	fs.written += size
	return nil
}

func (f forkFile) Read(p *des.Proc, client string, offset, size int64) error {
	fs := f.fs
	if size == 0 {
		return nil
	}
	fs.met.readSize.Observe(size)
	meta := fs.files[f.name]
	chunks := fs.stripeExtent(nil, len(meta.targets), offset, size)
	if err := forkRunChunks(fs, p, client, meta.targets, chunks, false); err != nil {
		return err
	}
	fs.read += size
	return nil
}

func forkRunChunks(fs *FS, p *des.Proc, client string, targets []int, chunks []extentChunk, write bool) error {
	if len(chunks) == 1 {
		return forkChunkOp(fs, p, client, targets, chunks[0], write)
	}
	var errs []error
	if fs.flt != nil {
		errs = make([]error, len(chunks))
	}
	p.Fork(fs.params.Name+"/chunk", len(chunks), func(hp *des.Proc, i int) {
		err := forkChunkOp(fs, hp, client, targets, chunks[i], write)
		if errs != nil {
			errs[i] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func forkChunkOp(fs *FS, p *des.Proc, client string, targets []int, c extentChunk, write bool) error {
	if fs.flt != nil {
		if err := fs.flt.OpError(p.Now()); err != nil {
			return err
		}
	}
	t := fs.params.Targets[targets[c.target]]
	step := fs.params.MaxServerRequest
	if step <= 0 || step > c.size {
		step = c.size
	}
	for done := int64(0); done < c.size; done += step {
		n := step
		if c.size-done < n {
			n = c.size - done
		}
		off := c.offset + done
		if write {
			fs.fab.Send(p, client, t.Node, n)
			t.Dev.Write(p, off, n)
		} else {
			fs.fab.Send(p, client, t.Node, 256)
			t.Dev.Read(p, off, n)
			fs.fab.Send(p, t.Node, client, n)
		}
	}
	return nil
}

// Target device kinds of a chunkCase.
const (
	bareDisk = iota
	raid0
	raid5
	cachedArray
	deviceKinds
)

// chunkCase is a random striped-filesystem workload: the targets' devices,
// the striping, an optional fault schedule and callers that each run a
// list of requests from a client node.
type chunkCase struct {
	devices     []int // a device kind per target
	members     []int // member disks per array target
	unit        int64 // the arrays' stripe unit
	stripe      int64 // the filesystem's stripe size
	serverReq   int64 // MaxServerRequest
	stripeCount int   // FileStripeCount
	cache       disksim.CacheParams
	clients     int
	sch         *faults.Schedule
	callers     []chunkCaller
}

type chunkCaller struct {
	client int // cn<client>, or ion<-1-client> when negative
	file   int // the caller's file; callers may share one
	ops    []chunkOp
}

type chunkOp struct {
	pause     units.Duration // slept before the request
	write     bool
	off, size int64
}

func randomChunkCase(rng *rand.Rand) chunkCase {
	c := chunkCase{
		unit:    []int64{16 * units.KiB, 64 * units.KiB}[rng.Intn(2)],
		stripe:  []int64{4 * units.KiB, 64 * units.KiB, 256 * units.KiB}[rng.Intn(3)],
		clients: 1 + rng.Intn(3),
		cache: disksim.CacheParams{
			Capacity: []int64{256 * units.KiB, units.MiB, 8 * units.MiB}[rng.Intn(3)],
			MemBW:    units.MBps(200 + 2000*rng.Float64()),
			Chunk:    []int64{64 * units.KiB, 256 * units.KiB}[rng.Intn(2)],
		},
	}
	if rng.Intn(2) == 0 {
		// Server steps that split a chunk into several requests.
		c.serverReq = []int64{4 * units.KiB, 32 * units.KiB, 100 * units.KiB}[rng.Intn(3)]
	}
	targets := 2 + rng.Intn(3)
	kind := rng.Intn(deviceKinds)
	for i := 0; i < targets; i++ {
		if rng.Intn(3) == 0 {
			kind = rng.Intn(deviceKinds) // mixed targets
		}
		c.devices = append(c.devices, kind)
		c.members = append(c.members, 3+rng.Intn(2))
	}
	if rng.Intn(4) == 0 {
		c.stripeCount = 2
	}
	switch rng.Intn(8) {
	case 1:
		c.sch = &faults.Schedule{Name: "slow", Effects: []faults.Effect{
			{Kind: faults.SlowDisk, Match: fmt.Sprintf("ion%d", rng.Intn(targets)), Factor: 1.5 + 2*rng.Float64()},
		}}
	case 2:
		c.sch = &faults.Schedule{Name: "degraded", Effects: []faults.Effect{
			{Kind: faults.LinkDegraded, Match: fmt.Sprintf("%d/", rng.Intn(targets)), Factor: 1.5 + 2*rng.Float64(),
				FromSec: 0.01 * rng.Float64(), ForSec: 0.002 + 0.03*rng.Float64()},
		}}
	case 3:
		c.sch = &faults.Schedule{Name: "flap", Effects: []faults.Effect{
			{Kind: faults.LinkFlap, DownMs: 0.2 + 2*rng.Float64(), UpMs: 0.5 + 5*rng.Float64(), FromSec: 0.002 * rng.Float64()},
		}}
	case 4:
		// A degradation that starts while the links are down, so a
		// transfer that waits out the outage moves at the new rate.
		c.sch = &faults.Schedule{Name: "flap-then-degraded", Effects: []faults.Effect{
			{Kind: faults.LinkFlap, DownMs: 1, UpMs: 1 + rng.Float64()},
			{Kind: faults.LinkDegraded, Factor: 2 + rng.Float64(), FromSec: 0.0001 + 0.0008*rng.Float64()},
		}}
	case 5:
		c.sch = &faults.Schedule{Name: "transient", Seed: rng.Int63(), Effects: []faults.Effect{
			{Kind: faults.TransientError, Prob: 0.1 + 0.4*rng.Float64(), OpCount: 10 + rng.Intn(40)},
		}}
	case 6:
		c.sch = &faults.Schedule{Name: "lost", Effects: []faults.Effect{
			{Kind: faults.RAIDMemberLost, Member: rng.Intn(3), FromSec: 0.005 * rng.Float64(), ForSec: 0.005 + 0.05*rng.Float64()},
		}}
	case 7:
		c.sch = &faults.Schedule{Name: "mix", Seed: rng.Int63(), Effects: []faults.Effect{
			{Kind: faults.SlowDisk, Factor: 1.2 + rng.Float64()},
			{Kind: faults.RAIDMemberLost, Member: rng.Intn(3)},
			{Kind: faults.LinkFlap, DownMs: 0.5 + rng.Float64(), UpMs: 2 + 3*rng.Float64()},
			{Kind: faults.LinkDegraded, Factor: 1.5, FromSec: 0.002 * rng.Float64(), ForSec: 0.01},
			{Kind: faults.TransientError, Prob: 0.2, OpCount: 30},
		}}
	}
	files := 1 + rng.Intn(2)
	row := c.stripe * int64(targets)
	for n := 1 + rng.Intn(8); n > 0; n-- {
		caller := chunkCaller{client: rng.Intn(c.clients), file: rng.Intn(files)}
		if rng.Intn(6) == 0 {
			// A caller on an I/O node: its own chunk is a loopback
			// copy.
			caller.client = -1 - rng.Intn(targets)
		}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			op := chunkOp{write: rng.Intn(2) == 0}
			if rng.Intn(3) > 0 {
				op.pause = units.Duration(rng.Intn(20)) * 100 * units.Microsecond
			}
			switch rng.Intn(4) {
			case 0: // whole stripe rows
				op.off, op.size = int64(rng.Intn(8))*row, int64(1+rng.Intn(3))*row
			case 1: // within one or two stripe units
				op.off, op.size = rng.Int63n(8*row), 1+rng.Int63n(c.stripe)
			case 2: // ragged, up to every target several times
				op.off, op.size = rng.Int63n(8*row), 1+rng.Int63n(3*row)
			default: // a large extent, sometimes empty
				op.off, op.size = rng.Int63n(8*row), rng.Int63n(8*row)
			}
			caller.ops = append(caller.ops, op)
		}
		c.callers = append(c.callers, caller)
	}
	return c
}

// chunkRun is what TestChunkLegsMatchForkHelpers compares: each request's
// completion (virtual time, caller, request index, error), the
// filesystem's traffic, every link's, disk's, array's and cache's state,
// and the telemetry dump without des/proc_parks, which counts the
// helpers' parks and so differs by design.
type chunkRun struct {
	trace    []string
	traffic  [2]int64
	links    []string
	devices  []string
	metrics  string
	parks    int64
	finished units.Duration
}

// build makes the case's cluster on eng: client nodes cn0.., and one I/O
// node per target with its device.
func (c chunkCase) build(eng *des.Engine) (*FS, *netsim.Fabric, []disksim.Device) {
	fab := netsim.NewFabric(eng, "net", netsim.LinkParams{Bandwidth: units.MBps(100), Latency: 10 * units.Microsecond})
	for i := 0; i < c.clients; i++ {
		fab.AddEndpoint(fmt.Sprintf("cn%d", i))
	}
	params := disksim.DiskParams{
		SeqReadBW: units.MBps(80), SeqWriteBW: units.MBps(70),
		SeekTime: 2 * units.Millisecond, Overhead: 50 * units.Microsecond,
		CapacityB: units.GiB, NearThreshold: 64 * units.KiB, Turnaround: units.Millisecond,
	}
	var targets []Target
	var devs []disksim.Device
	for i, kind := range c.devices {
		node := fmt.Sprintf("ion%d", i)
		fab.AddEndpoint(node)
		var members []*disksim.Disk
		disks := 1
		if kind != bareDisk {
			disks = c.members[i]
		}
		for d := 0; d < disks; d++ {
			members = append(members, disksim.NewDisk(eng, fmt.Sprintf("%s/d%d", node, d), params))
			devs = append(devs, members[d])
		}
		var dev disksim.Device = members[0]
		switch kind {
		case raid0:
			dev = disksim.NewArray(eng, node+"/raid", disksim.RAID0, members, c.unit)
		case raid5, cachedArray:
			dev = disksim.NewArray(eng, node+"/raid", disksim.RAID5, members, c.unit)
		}
		if kind != bareDisk {
			devs = append(devs, dev)
		}
		if kind == cachedArray {
			dev = disksim.NewWriteCache(eng, node+"/cache", dev, c.cache)
			devs = append(devs, dev)
		}
		targets = append(targets, Target{Node: node, Dev: dev})
	}
	fs := New(eng, fab, Params{
		Name: "fs", Kind: "pvfs2", Targets: targets, StripeSize: c.stripe,
		FileStripeCount: c.stripeCount, MaxServerRequest: c.serverReq,
	})
	return fs, fab, devs
}

func runChunkCase(c chunkCase, oracle bool) chunkRun {
	obs.Default().Reset()
	eng := des.NewEngine()
	if c.sch != nil {
		faults.Attach(eng, c.sch, "test")
	}
	fs, fab, devs := c.build(eng)
	var run chunkRun
	// The callers start their requests together, so that accesses issue
	// at one instant and their legs' starts interleave with other
	// callers' issues.
	start := des.NewBarrier(eng, "start", len(c.callers))
	for i, caller := range c.callers {
		name := fmt.Sprintf("c%d", i)
		client := fmt.Sprintf("cn%d", caller.client)
		if caller.client < 0 {
			client = fmt.Sprintf("ion%d", -1-caller.client)
		}
		eng.Spawn(name, func(p *des.Proc) {
			f := fs.Open(p, client, fmt.Sprintf("/f%d", caller.file))
			start.Wait(p)
			var dev interface {
				Read(p *des.Proc, client string, offset, size int64) error
				Write(p *des.Proc, client string, offset, size int64) error
			} = f
			if oracle {
				dev = forkFile{f}
			}
			for k, op := range caller.ops {
				p.Sleep(op.pause)
				var err error
				if op.write {
					err = dev.Write(p, client, op.off, op.size)
				} else {
					err = dev.Read(p, client, op.off, op.size)
				}
				run.trace = append(run.trace, fmt.Sprintf("%d %s %d %v", p.Now(), name, k, err))
			}
			fs.Sync(p)
			run.trace = append(run.trace, fmt.Sprintf("%d %s synced", p.Now(), name))
		})
	}
	eng.Run()
	run.finished = eng.Now()
	run.traffic[0], run.traffic[1] = fs.Traffic()
	for _, ep := range fab.Endpoints() {
		for _, l := range []*netsim.Link{fab.Uplink(ep), fab.Downlink(ep)} {
			b, m, busy := l.Stats()
			run.links = append(run.links, fmt.Sprintf("%s %d %d %d", l.Name(), b, m, busy))
		}
	}
	lb, lm := fab.LocalStats()
	run.links = append(run.links, fmt.Sprintf("local %d %d", lb, lm))
	for _, d := range devs {
		s := fmt.Sprintf("%s %+v", d.Name(), d.Counters())
		if wc, ok := d.(*disksim.WriteCache); ok {
			s += fmt.Sprintf(" level %d", wc.Level())
		}
		run.devices = append(run.devices, s)
	}
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

// TestChunkLegsMatchForkHelpers drives random workloads through the
// callback chunk legs and through the Fork helpers they replace: targets
// on bare disks, RAID0 and RAID5 arrays and write caches over arrays,
// stripe sizes with and without server steps that split a chunk, one to
// eight callers on shared client nodes, and every fault kind (a slow
// disk, a degraded link, a flapping link, a degradation that starts
// during an outage, transient errors, a lost RAID member, all at once).
// Both must complete every request at the same virtual time with the same
// error, leave the same traffic and link, device and cache state, and
// schedule the same events; the legs park only the callers.
func TestChunkLegsMatchForkHelpers(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.Default().Reset()
	for seed := int64(1); seed <= 300; seed++ {
		c := randomChunkCase(rand.New(rand.NewSource(seed)))
		want := runChunkCase(c, true)
		got := runChunkCase(c, false)
		if !reflect.DeepEqual(got.trace, want.trace) {
			t.Fatalf("seed %d: completions\n%v\nwant (Fork helpers)\n%v", seed, got.trace, want.trace)
		}
		if got.finished != want.finished || got.traffic != want.traffic {
			t.Fatalf("seed %d: ended at %v with traffic %v, want %v and %v", seed, got.finished, got.traffic, want.finished, want.traffic)
		}
		if !reflect.DeepEqual(got.links, want.links) {
			t.Fatalf("seed %d: links\n%v\nwant (Fork helpers)\n%v", seed, got.links, want.links)
		}
		if !reflect.DeepEqual(got.devices, want.devices) {
			t.Fatalf("seed %d: devices\n%v\nwant (Fork helpers)\n%v", seed, got.devices, want.devices)
		}
		if got.metrics != want.metrics {
			t.Fatalf("seed %d: telemetry\n%s\nwant (Fork helpers)\n%s", seed, got.metrics, want.metrics)
		}
		if got.parks > want.parks {
			t.Fatalf("seed %d: %d parks, more than the helpers' %d", seed, got.parks, want.parks)
		}
	}
}

// TestChunkLegsAllocateNothing: once a filesystem has served a striped
// write and read, the next ones allocate nothing. The file stripes over a
// bare disk, a RAID5 array and a write cache over one, in server steps
// that split each chunk, and the write cache absorbs, flushes and serves
// read hits.
func TestChunkLegsAllocateNothing(t *testing.T) {
	eng := des.NewEngine()
	c := chunkCase{
		devices: []int{bareDisk, raid5, cachedArray}, members: []int{1, 4, 4},
		unit: 16 * units.KiB, stripe: 64 * units.KiB, serverReq: 32 * units.KiB, clients: 1,
		cache: disksim.CacheParams{Capacity: 8 * units.MiB, MemBW: units.GBps(2), Chunk: 64 * units.KiB},
	}
	fs, _, _ := c.build(eng)
	allocs := -1.0
	eng.Spawn("m", func(p *des.Proc) {
		f := fs.Open(p, "cn0", "/f")
		requests := func() {
			if err := f.Write(p, "cn0", 32*units.KiB, units.MiB); err != nil {
				t.Error(err)
			}
			if err := f.Read(p, "cn0", 32*units.KiB, units.MiB); err != nil {
				t.Error(err)
			}
			fs.Sync(p)
		}
		requests()
		allocs = testing.AllocsPerRun(20, requests)
	})
	eng.Run()
	if allocs != 0 {
		t.Fatalf("warmed striped accesses allocate %.1f times per run, want 0", allocs)
	}
}
