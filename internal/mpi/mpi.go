// Package mpi provides a simulated MPI runtime: a fixed set of ranks
// executing as deterministic coroutines on a cluster fabric, with barriers,
// a neighbor halo exchange, busy-work — and, most importantly for the
// paper's methodology, a per-rank logical clock (the PAS2P "tick") that
// counts MPI events. Ticks are what let the phase analyzer tell "40
// writes separated by solver communication" (40 phases) apart from "40
// back-to-back reads" (one phase with rep 40).
package mpi

import (
	"fmt"
	"math"

	"iophases/internal/des"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

// World is one simulated MPI job.
type World struct {
	eng     *des.Engine
	fab     *netsim.Fabric
	np      int
	nodeOf  []string
	barrier *des.Barrier
	latency units.Duration
	ranks   []*Rank
}

// NewWorld creates a job with np = len(nodes) ranks; nodes[r] is the fabric
// endpoint rank r runs on.
func NewWorld(eng *des.Engine, fab *netsim.Fabric, nodes []string) *World {
	if len(nodes) == 0 {
		panic("mpi: empty world")
	}
	for _, n := range nodes {
		if !fab.HasEndpoint(n) {
			panic(fmt.Sprintf("mpi: node %q not in fabric", n))
		}
	}
	w := &World{
		eng:     eng,
		fab:     fab,
		np:      len(nodes),
		nodeOf:  append([]string(nil), nodes...),
		barrier: des.NewBarrier(eng, "mpi-barrier", len(nodes)),
		latency: 50 * units.Microsecond,
	}
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.np }

// Engine exposes the simulation engine the world runs on.
func (w *World) Engine() *des.Engine { return w.eng }

// Fabric exposes the interconnect.
func (w *World) Fabric() *netsim.Fabric { return w.fab }

// SetLatency overrides the software messaging latency a Barrier pays per
// phase (default 50 µs, a TCP/Ethernet MPI stack; InfiniBand stacks
// are a few µs).
func (w *World) SetLatency(d units.Duration) { w.latency = d }

// NodeOf reports the endpoint of a rank.
func (w *World) NodeOf(rank int) string { return w.nodeOf[rank] }

// Run spawns every rank executing program and drives the simulation to
// completion, returning the elapsed virtual time.
func (w *World) Run(program func(r *Rank)) units.Duration {
	start := w.eng.Now()
	w.Launch(program, nil)
	w.eng.Run()
	return w.eng.Now() - start
}

// Launch spawns every rank without driving the engine, so several worlds
// (jobs) can share one cluster and execute concurrently; the caller runs
// the engine once after launching all jobs. onDone, if non-nil, fires when
// the job's last rank finishes.
func (w *World) Launch(program func(r *Rank), onDone func()) {
	w.ranks = make([]*Rank, w.np)
	remaining := w.np
	for i := 0; i < w.np; i++ {
		i := i
		r := &Rank{world: w, id: i}
		w.ranks[i] = r
		w.eng.Spawn(fmt.Sprintf("rank%d", i), func(p *des.Proc) {
			r.proc = p
			program(r)
			remaining--
			if remaining == 0 && onDone != nil {
				onDone()
			}
		})
	}
}

// Rank is one MPI process. All methods must be called from the rank's own
// coroutine (the program function passed to Run).
type Rank struct {
	world *World
	id    int
	proc  *des.Proc
	tick  int64
}

// ID reports the MPI rank (idP in the paper's notation).
func (r *Rank) ID() int { return r.id }

// Size reports the communicator size.
func (r *Rank) Size() int { return r.world.np }

// Node reports the rank's fabric endpoint.
func (r *Rank) Node() string { return r.world.nodeOf[r.id] }

// Proc exposes the underlying simulated process (for I/O layers).
func (r *Rank) Proc() *des.Proc { return r.proc }

// Tick reports the rank's current logical clock value.
func (r *Rank) Tick() int64 { return r.tick }

// NextTick advances and returns the logical clock; every MPI event
// (communication or I/O) consumes exactly one tick, mirroring PAS2P.
func (r *Rank) NextTick() int64 {
	r.tick++
	return r.tick
}

// Now reports virtual time.
func (r *Rank) Now() units.Duration { return r.proc.Now() }

// Compute burns d of busy-work. It is not an MPI event: no tick.
func (r *Rank) Compute(d units.Duration) { r.proc.Sleep(d) }

// Barrier synchronizes all ranks (one tick).
func (r *Rank) Barrier() {
	r.NextTick()
	// log2(np) software phases of latency before the rendezvous.
	r.proc.Sleep(units.Duration(logPhases(r.world.np)) * r.world.latency)
	r.world.barrier.Wait(r.proc)
}

// Sync blocks until every rank has called it, without consuming a tick.
// Composite operations (collective I/O, collective open/close) use it so
// the whole operation costs exactly one logical event, as the tracer sees
// one MPI-IO call.
func (r *Rank) Sync() {
	r.world.barrier.Wait(r.proc)
}

// Exchange models one neighbor halo exchange of size bytes with rank
// (id+1)%np — the dominant communication of stencil solvers like BT. It
// costs one tick and the network transfer time, without rendezvous
// bookkeeping (both directions are charged to the caller's links).
func (r *Rank) Exchange(size int64) {
	r.NextTick()
	dst := (r.id + 1) % r.world.np
	r.world.fab.Send(r.proc, r.Node(), r.world.nodeOf[dst], size)
}

// logPhases is ceil(log2(n)), the software phase count of a barrier.
func logPhases(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
