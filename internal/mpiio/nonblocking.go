package mpiio

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/mpi"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// Request is the handle of a nonblocking data operation
// (MPI_File_iwrite_at / MPI_File_iread_at). The transfer proceeds on a
// background process; Wait blocks the rank until completion and records
// the traced event (start at issue time, duration to completion — what an
// interposition tracer wrapping the request pair observes).
type Request struct {
	sys    *System
	file   *File
	rank   int
	op     trace.Op
	off    int64
	size   int64
	start  units.Duration
	tick   int64
	done   bool
	waiter *des.Proc
	end    units.Duration
}

// nonblocking launches the transfer on a helper process and returns the
// request.
func (f *File) nonblocking(r *mpi.Rank, op trace.Op, offEtypes, size int64) *Request {
	f.checkSize(r, size)
	req := &Request{
		sys:   f.sys,
		file:  f,
		rank:  r.ID(),
		op:    op,
		off:   offEtypes,
		size:  size,
		start: r.Now(),
		tick:  r.NextTick(),
	}
	f.meta.Blocking = false
	f.sys.syncMeta(f)
	h := f.handles[r.ID()]
	node := r.Node()
	extents := f.views[r.ID()].MapBytes(offEtypes, size)
	eng := f.sys.world.Engine()
	sys := f.sys
	eng.Spawn(fmt.Sprintf("iop:r%d", r.ID()), func(p *des.Proc) {
		for _, e := range extents {
			sys.fsAccess(p, h, node, op.IsWrite(), e.Offset, e.Size)
		}
		req.done = true
		req.end = p.Now()
		if req.waiter != nil {
			eng.Unpark(req.waiter)
			req.waiter = nil
		}
	})
	return req
}

// IWriteAt starts a nonblocking write at an explicit view offset.
func (f *File) IWriteAt(r *mpi.Rank, offEtypes, size int64) *Request {
	return f.nonblocking(r, trace.OpIWriteAt, offEtypes, size)
}

// IReadAt starts a nonblocking read at an explicit view offset.
func (f *File) IReadAt(r *mpi.Rank, offEtypes, size int64) *Request {
	return f.nonblocking(r, trace.OpIReadAt, offEtypes, size)
}

// Wait blocks until the request completes (MPI_Wait; one tick) and records
// the traced operation. Waiting twice panics, as in MPI.
func (q *Request) Wait(r *mpi.Rank) {
	if r.ID() != q.rank {
		panic("mpiio: request waited by a different rank")
	}
	if q.tick < 0 {
		panic("mpiio: request already completed")
	}
	r.NextTick() // MPI_Wait is an MPI event
	if !q.done {
		q.waiter = r.Proc()
		r.Proc().Park("mpi_wait", "")
	}
	q.sys.record(trace.Event{
		Rank: q.rank, File: q.file.id, Op: q.op, Offset: q.off, Tick: q.tick,
		Size: q.size, Time: q.start, Duration: q.end - q.start,
	})
	q.tick = -1
}

// Test reports whether the request has completed without blocking.
func (q *Request) Test() bool { return q.done }
