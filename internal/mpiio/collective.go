package mpiio

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/mpi"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// collState gathers one round of a collective data operation. SPMD
// semantics guarantee all ranks issue collectives in the same order, so a
// single in-flight round per file suffices.
type collState struct {
	arrivals []collArrival
}

type collArrival struct {
	rank  int
	proc  *des.Proc
	size  int64
	off   int64
	start units.Duration
	tick  int64
}

// collective implements MPI_File_{write,read}_at_all with two-phase I/O:
// the union of all ranks' view extents is merged into contiguous file
// domains, one aggregator per compute node moves its domain with large
// requests, and data shuffles between ranks and aggregators over the
// fabric. Strided little pieces become streaming transfers — the reason
// BT-IO FULL is viable on NFS at all.
func (f *File) collective(r *mpi.Rank, op trace.Op, offEtypes, size int64) {
	f.checkSize(r, size)
	if f.accessType == Unique {
		// File-per-process: the collective degenerates to synchronized
		// independent access to private files.
		start := r.Now()
		tick := r.NextTick()
		r.Sync()
		h := f.handles[r.ID()]
		for _, e := range f.views[r.ID()].MapBytes(offEtypes, size) {
			f.sys.fsAccess(r.Proc(), h, r.Node(), op.IsWrite(), e.Offset, e.Size)
		}
		r.Sync()
		f.sys.record(trace.Event{
			Rank: r.ID(), File: f.id, Op: op, Offset: offEtypes, Tick: tick,
			Size: size, Time: start, Duration: r.Now() - start,
		})
		return
	}

	f.meta.Collective = true
	arrival := collArrival{
		rank:  r.ID(),
		proc:  r.Proc(),
		size:  size,
		off:   offEtypes,
		start: r.Now(),
		tick:  r.NextTick(),
	}
	f.coll.arrivals = append(f.coll.arrivals, arrival)
	if len(f.coll.arrivals) < f.sys.world.Size() {
		r.Proc().Park("collective", string(op))
	} else {
		f.runTwoPhase(r, op)
	}
	// Every rank (orchestrator included) records its own call on return;
	// all ranks return together at orchestration end.
	f.sys.record(trace.Event{
		Rank: r.ID(), File: f.id, Op: op, Offset: offEtypes, Tick: arrival.tick,
		Size: size, Time: arrival.start, Duration: r.Now() - arrival.start,
	})
	f.sys.syncMeta(f)
}

// runTwoPhase executes the gathered round; called by the last-arriving rank.
func (f *File) runTwoPhase(r *mpi.Rank, op trace.Op) {
	arr := f.coll.arrivals
	f.coll.arrivals = nil
	sys := f.sys
	eng := sys.world.Engine()
	world := sys.world

	// Union of every rank's physical extents, merged into file domains.
	var all []Extent
	for _, a := range arr {
		all = append(all, f.views[a.rank].MapBytes(a.off, a.size)...)
	}
	merged := mergeExtents(all)
	aggs := sys.aggSet
	domains := splitExtents(merged, len(aggs))
	h := f.sharedHandle()
	np := world.Size()

	// Only ranks with data shuffle and only aggregators with a
	// non-empty domain access the file: one helper each, in order.
	var movers []collArrival
	for _, a := range arr {
		if a.size != 0 {
			movers = append(movers, a)
		}
	}
	var busy []int
	for i, dom := range domains {
		if len(dom) != 0 {
			busy = append(busy, i)
		}
	}
	shuffle := func(toAggregators bool) {
		r.Proc().Fork("coll-shuffle", len(movers), func(p *des.Proc, i int) {
			a := movers[i]
			aggNode := world.NodeOf(aggs[a.rank*len(aggs)/np])
			rankNode := world.NodeOf(a.rank)
			if toAggregators {
				world.Fabric().Send(p, rankNode, aggNode, a.size)
			} else {
				world.Fabric().Send(p, aggNode, rankNode, a.size)
			}
		})
	}
	access := func() {
		r.Proc().Fork("coll-agg", len(busy), func(p *des.Proc, i int) {
			d := busy[i]
			node := world.NodeOf(aggs[d%len(aggs)])
			for _, e := range domains[d] {
				sys.fsAccess(p, h, node, op.IsWrite(), e.Offset, e.Size)
			}
		})
	}

	switch {
	case op.IsWrite():
		shuffle(true) // ranks → aggregators
		access()      // aggregators → filesystem
	case op.IsRead():
		access()       // filesystem → aggregators
		shuffle(false) // aggregators → ranks
	default:
		panic(fmt.Sprintf("mpiio: collective %s", op))
	}

	// Release all parked participants at the common completion time.
	for _, a := range arr {
		if a.rank != r.ID() {
			eng.Unpark(a.proc)
		}
	}
}
