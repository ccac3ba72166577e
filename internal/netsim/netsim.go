// Package netsim models cluster interconnects for the I/O-phase simulator.
//
// The model is intentionally first-order: every endpoint's uplink and
// downlink is a shared serial medium, served FIFO, and a message pays a
// fixed bandwidth and per-link latency (LinkParams.PathCost). Concurrent
// senders queue behind each other, so the aggregate throughput through any
// link never exceeds its bandwidth — the mechanism that makes an NFS server
// on Gigabit Ethernet the bottleneck below the RAID's device peak, exactly
// the relationship Tables IX and X of the paper rest on.
package netsim

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/faults"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// LinkParams describe a physical link.
type LinkParams struct {
	Bandwidth units.Bandwidth // payload rate after protocol overhead
	Latency   units.Duration  // per-message one-way latency
}

// PathCost reports the cost of one fabric Send between two distinct
// endpoints: uplink plus downlink latency and one serialization time
// (cut-through switching). Fabric.Send charges exactly this once both
// links are acquired, and the analytic fast path (internal/fastpath)
// prices network legs with it.
func (lp LinkParams) PathCost(size int64) units.Duration {
	return 2*lp.Latency + units.TransferTime(size, lp.Bandwidth)
}

// Ethernet1G returns parameters for the 1 Gb/s Ethernet used by
// configurations A, B and C (≈117 MB/s raw, ≈112 MB/s after TCP/IP and
// filesystem protocol overhead).
func Ethernet1G() LinkParams {
	return LinkParams{Bandwidth: units.MBps(112), Latency: 50 * units.Microsecond}
}

// Ethernet10G returns parameters for 10 Gb/s Ethernet (≈1120 MB/s after
// protocol overhead), for what-if configuration exploration.
func Ethernet10G() LinkParams {
	return LinkParams{Bandwidth: units.MBps(1120), Latency: 20 * units.Microsecond}
}

// Infiniband20G returns parameters for Finisterrae's 20 Gb/s InfiniBand
// (4x DDR, ≈1900 MB/s effective after protocol overhead).
func Infiniband20G() LinkParams {
	return LinkParams{Bandwidth: units.MBps(1900), Latency: 4 * units.Microsecond}
}

// Link is a unidirectional shared medium: the queue a Fabric's messages
// occupy and the counters they leave. Use one Link per direction for
// full-duplex media.
type Link struct {
	name string
	res  *des.Resource

	bytes    int64
	messages int64
	busy     units.Duration

	// Run-telemetry handles (nil-safe). Counters are shared by link name
	// across engines, so a sweep's thousand simulations of one spec
	// aggregate into one per-link series.
	cBytes *obs.Counter
	cMsgs  *obs.Counter
}

// newLink creates a link on the engine.
func newLink(eng *des.Engine, name string) *Link {
	l := &Link{name: name, res: des.NewResource(eng, "link:"+name, 1)}
	if h := obs.Hot(); h != nil {
		l.cBytes = h.Counter("netsim/link/" + name + "/bytes")
		l.cMsgs = h.Counter("netsim/link/" + name + "/messages")
	}
	return l
}

// Name reports the link name.
func (l *Link) Name() string { return l.name }

// Stats reports cumulative traffic counters.
func (l *Link) Stats() (bytes, messages int64, busy units.Duration) {
	return l.bytes, l.messages, l.busy
}

// Fabric is a star topology: every endpoint owns an uplink (endpoint →
// switch) and a downlink (switch → endpoint), and the switch core is
// non-blocking. A message from a to b crosses a's uplink then b's downlink,
// so endpoint NICs are the only contention points — a reasonable model of
// both the Gigabit switches of Aohyper and Finisterrae's InfiniBand fat
// tree at the scales the paper uses.
type Fabric struct {
	eng    *des.Engine
	name   string
	params LinkParams
	up     map[string]*Link
	down   map[string]*Link
	order  []string
	flt    *faults.Injector // nil on a healthy cluster

	// Loopback traffic (src == dst in Send) never crosses a link, so it is
	// counted here instead of in any Link's Stats — summing link counters
	// meters the wire, while these meter the memory-copy path.
	localBytes    int64
	localMessages int64

	cLocalBytes *obs.Counter
	cLocalMsgs  *obs.Counter
}

// NewFabric creates an empty fabric whose endpoint links all share params.
func NewFabric(eng *des.Engine, name string, params LinkParams) *Fabric {
	if params.Bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: fabric %q without bandwidth", name))
	}
	f := &Fabric{
		eng:    eng,
		name:   name,
		params: params,
		up:     make(map[string]*Link),
		down:   make(map[string]*Link),
		flt:    faults.For(eng),
	}
	if h := obs.Hot(); h != nil {
		f.cLocalBytes = h.Counter("netsim/fabric/" + name + "/local_bytes")
		f.cLocalMsgs = h.Counter("netsim/fabric/" + name + "/local_messages")
	}
	return f
}

// AddEndpoint registers a named endpoint (a compute node or I/O node).
// Adding the same endpoint twice panics.
func (f *Fabric) AddEndpoint(name string) {
	if _, dup := f.up[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate endpoint %q", name))
	}
	f.up[name] = newLink(f.eng, f.name+"/"+name+"/up")
	f.down[name] = newLink(f.eng, f.name+"/"+name+"/down")
	f.order = append(f.order, name)
}

// HasEndpoint reports whether name is registered.
func (f *Fabric) HasEndpoint(name string) bool {
	_, ok := f.up[name]
	return ok
}

// Endpoints lists endpoint names in registration order.
func (f *Fabric) Endpoints() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Send moves size bytes from endpoint src to endpoint dst, blocking the
// calling process for the full transfer. Local sends (src == dst) cost a
// fixed memory-copy time and are metered by LocalStats, not by any link —
// they never occupy the wire, so including them in Link.Stats would
// overstate network utilization.
func (f *Fabric) Send(p *des.Proc, src, dst string, size int64) {
	if src == dst {
		if !f.HasEndpoint(src) {
			panic(fmt.Sprintf("netsim: unknown endpoint %q", src))
		}
		// Intra-node copy: memory bandwidth, effectively free relative
		// to any network on this simulator's scale.
		p.Sleep(units.TransferTime(size, units.GBps(4)))
		f.localBytes += size
		f.localMessages++
		f.cLocalBytes.Add(size)
		f.cLocalMsgs.Inc()
		return
	}
	upl, ok := f.up[src]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown src endpoint %q", src))
	}
	dnl, ok := f.down[dst]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown dst endpoint %q", dst))
	}
	// Cut-through switching: the message occupies the uplink and the
	// destination downlink simultaneously and pays one serialization
	// time, as in a real pipelined switch. Acquisition order is always
	// uplink-then-downlink; the (src.up, dst.down) pairs of any two
	// transfers never form a cycle, so this cannot deadlock.
	upl.res.Acquire(p, 1)
	dnl.res.Acquire(p, 1)
	d := f.params.PathCost(size)
	if flt := f.flt; flt != nil {
		// The path is one pipelined transfer: wait out the longer of the
		// two endpoints' outages, then stretch by the worse degradation
		// factor — applied once, even when both links match an effect.
		w := flt.LinkOutage(upl.name, p.Now())
		if w2 := flt.LinkOutage(dnl.name, p.Now()); w2 > w {
			w = w2
		}
		if w > 0 {
			p.Sleep(w)
		}
		factor := flt.LinkFactor(upl.name, p.Now())
		if f2 := flt.LinkFactor(dnl.name, p.Now()); f2 > factor {
			factor = f2
		}
		d = units.Duration(float64(d) * factor)
	}
	p.Sleep(d)
	dnl.res.Release(1)
	upl.res.Release(1)
	for _, l := range [2]*Link{upl, dnl} {
		l.bytes += size
		l.messages++
		l.busy += d
		l.cBytes.Add(size)
		l.cMsgs.Inc()
	}
}

// LocalStats reports cumulative loopback traffic: Send calls with
// src == dst, which take the memory-copy path and touch no link.
func (f *Fabric) LocalStats() (bytes, messages int64) {
	return f.localBytes, f.localMessages
}

// WireStats sums the uplink counters across every endpoint: each non-local
// message crosses exactly one uplink (and one downlink), so this is the
// unique wire traffic of the whole fabric — the shared-subsystem total
// that co-execution reports reconcile per-application attribution against.
func (f *Fabric) WireStats() (bytes, messages int64) {
	for _, name := range f.order {
		b, m, _ := f.up[name].Stats()
		bytes += b
		messages += m
	}
	return bytes, messages
}

// Uplink returns the uplink of an endpoint (for stats inspection).
func (f *Fabric) Uplink(name string) *Link { return f.up[name] }

// Downlink returns the downlink of an endpoint.
func (f *Fabric) Downlink(name string) *Link { return f.down[name] }
