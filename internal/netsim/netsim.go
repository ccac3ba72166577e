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

	// free holds the SendThen requests not in flight.
	free []*sendReq
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
		p.Sleep(f.localTime(src, size))
		f.endLocal(size)
		return
	}
	upl, dnl := f.path(src, dst)
	// Cut-through switching: the message occupies the uplink and the
	// destination downlink simultaneously and pays one serialization
	// time, as in a real pipelined switch. Acquisition order is always
	// uplink-then-downlink; the (src.up, dst.down) pairs of any two
	// transfers never form a cycle, so this cannot deadlock.
	upl.res.Acquire(p, 1)
	dnl.res.Acquire(p, 1)
	if w := f.outage(upl, dnl, p.Now()); w > 0 {
		p.Sleep(w)
	}
	d := f.pathTime(upl, dnl, size, p.Now())
	p.Sleep(d)
	f.end(upl, dnl, size, d)
}

// SendThen moves size bytes from src to dst without a process: the
// message queues for the links, waits out an outage and takes its
// transfer time as Send's does, at the same instants and in the same
// order, and done runs inside the event that ends the transfer, where
// Send would return. Send and SendThen share the lookups, the fault
// sampling and the accounting, so the timing model exists once.
func (f *Fabric) SendThen(src, dst string, size int64, done func()) {
	r := f.takeSend()
	r.size, r.done = size, done
	if src == dst {
		r.at = sendEnd
		if t := f.localTime(src, size); t > 0 {
			f.eng.Schedule(t, r.stepFn)
			return
		}
		r.step()
		return
	}
	r.upl, r.dnl = f.path(src, dst)
	r.at = sendUp
	r.upl.res.AcquireThen(1, r.stepFn)
}

// localTime checks a loopback endpoint and reports its copy time:
// memory bandwidth, effectively free relative to any network on this
// simulator's scale.
func (f *Fabric) localTime(node string, size int64) units.Duration {
	if !f.HasEndpoint(node) {
		panic(fmt.Sprintf("netsim: unknown endpoint %q", node))
	}
	return units.TransferTime(size, units.GBps(4))
}

// endLocal accounts a finished loopback copy.
func (f *Fabric) endLocal(size int64) {
	f.localBytes += size
	f.localMessages++
	f.cLocalBytes.Add(size)
	f.cLocalMsgs.Inc()
}

// path looks up the links a message from src to dst crosses.
func (f *Fabric) path(src, dst string) (upl, dnl *Link) {
	upl, ok := f.up[src]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown src endpoint %q", src))
	}
	dnl, ok = f.down[dst]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown dst endpoint %q", dst))
	}
	return upl, dnl
}

// outage reports how long a message that holds both links at now waits
// for them to come up: the path is one pipelined transfer, so it waits
// out the longer of the two endpoints' outages.
func (f *Fabric) outage(upl, dnl *Link, now units.Duration) units.Duration {
	if f.flt == nil {
		return 0
	}
	w := f.flt.LinkOutage(upl.name, now)
	if w2 := f.flt.LinkOutage(dnl.name, now); w2 > w {
		w = w2
	}
	return w
}

// pathTime reports the transfer time of a message that starts moving at
// now: PathCost stretched by the worse of the two links' degradation
// factors, applied once even when both links match an effect.
func (f *Fabric) pathTime(upl, dnl *Link, size int64, now units.Duration) units.Duration {
	d := f.params.PathCost(size)
	if f.flt != nil {
		factor := f.flt.LinkFactor(upl.name, now)
		if f2 := f.flt.LinkFactor(dnl.name, now); f2 > factor {
			factor = f2
		}
		d = units.Duration(float64(d) * factor)
	}
	return d
}

// end releases both links after a transfer of time d and accounts it.
func (f *Fabric) end(upl, dnl *Link, size int64, d units.Duration) {
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

// sendReq is a SendThen in flight; upl and dnl are nil for a loopback
// copy. Its step is bound once, when the fabric first needs one more
// request, and requests are reused from a free list on the Fabric, so a
// send allocates nothing.
type sendReq struct {
	f        *Fabric
	upl, dnl *Link
	size     int64
	d        units.Duration
	done     func()
	at       sendStage
	stepFn   func()
}

// sendStage is what a SendThen does when its next step runs.
type sendStage uint8

const (
	sendUp   sendStage = iota // the uplink is held: queue for the downlink
	sendDown                  // both links are held: wait out an outage
	sendMove                  // the links are up: move the message
	sendEnd                   // the message has arrived
)

// takeSend returns a request from the free list, or a new one.
func (f *Fabric) takeSend() *sendReq {
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
		f.free = f.free[:n-1]
		return r
	}
	r := &sendReq{f: f}
	r.stepFn = r.step
	return r
}

// step takes the send one stage on, as Send's next statement would. At
// the end it returns the request to the free list and runs the callback,
// which may start the next send with it.
func (r *sendReq) step() {
	f := r.f
	switch r.at {
	case sendUp:
		r.at = sendDown
		r.dnl.res.AcquireThen(1, r.stepFn)
	case sendDown:
		r.at = sendMove
		if w := f.outage(r.upl, r.dnl, f.eng.Now()); w > 0 {
			f.eng.Schedule(w, r.stepFn)
			return
		}
		fallthrough
	case sendMove:
		r.at = sendEnd
		r.d = f.pathTime(r.upl, r.dnl, r.size, f.eng.Now())
		if r.d > 0 {
			f.eng.Schedule(r.d, r.stepFn)
			return
		}
		fallthrough
	case sendEnd:
		if r.upl == nil {
			f.endLocal(r.size)
		} else {
			f.end(r.upl, r.dnl, r.size, r.d)
		}
		done := r.done
		r.upl, r.dnl, r.done = nil, nil, nil
		f.free = append(f.free, r)
		done()
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
