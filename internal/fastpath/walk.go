package fastpath

import (
	"sync"

	"iophases/internal/cluster"
	"iophases/internal/fsim"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

// walker advances a single rank's virtual clock through the filesystem
// call sequence an admissible run issues. Compute nodes and I/O nodes are
// distinct fabric endpoints in every built cluster, so every request
// crosses the network at the uncontended path cost; at one rank, barriers
// and collective syncs are free (zero tree phases, immediate rendezvous).
// All costs flow through the sanctioned seams (net.PathCost, the server
// sim's device clocks, the fsim meta cost carried in metaCost) — see the
// package comment's "Sanctioned cost seams" and the fpfidelity analyzer.
type walker struct {
	net      netsim.LinkParams
	metaCost units.Duration
	maxReq   int64 // fsim MaxServerRequest (0 = unlimited)
	srv      serverSim
	now      units.Duration
}

// walkers recycles walkers across runs. A walker's device clocks and dirty
// ledger keep their slices between runs, so a steady-state replay
// allocates nothing for its state.
var walkers = sync.Pool{New: func() any { return new(walker) }}

// getWalker returns a walker at the start of a run on spec: the state
// newly built devices have. Return it with walkers.Put when the run ends.
func getWalker(spec *cluster.Spec) *walker {
	mc := spec.Storage.MetaCost
	if mc == 0 {
		mc = fsim.DefaultMetaCost
	}
	w := walkers.Get().(*walker)
	*w = walker{
		net:      spec.Net,
		metaCost: mc,
		maxReq:   spec.Storage.ServerRequest,
		srv:      w.srv,
	}
	w.srv.reset(&spec.Storage)
	return w
}

// send charges one fabric transfer between the client and the target.
func (w *walker) send(size int64) { w.now += w.net.PathCost(size) }

// metaOp charges one metadata round trip (fsim.metaOp): a 1 KiB request to
// the metadata node plus the service time.
func (w *walker) metaOp() {
	w.send(1024)
	w.now += w.metaCost
}

// open charges an MPI-IO collective open at one rank: the filesystem
// create-or-open metadata operation (the collective sync is free).
func (w *walker) open() { w.metaOp() }

// close charges an MPI-IO collective close at one rank.
func (w *walker) close() { w.metaOp() }

// writeExtent walks one client write extent through fsim's chunkOp: with a
// single target the extent is one chunk at its own file offset, issued to
// the server in MaxServerRequest pieces — transfer to the target, then the
// server-side write, sequentially in the client's process.
func (w *walker) writeExtent(offset, size int64) {
	step := w.maxReq
	if step <= 0 || step > size {
		step = size
	}
	for done := int64(0); done < size; done += step {
		n := step
		if size-done < n {
			n = size - done
		}
		w.send(n)
		w.now = w.srv.write(w.now, offset+done, n)
		if w.srv.bail {
			return
		}
	}
}

// readExtent walks one client read extent: per server piece, a 256-byte
// request message, the server-side read, and the data transfer back.
func (w *walker) readExtent(offset, size int64) {
	step := w.maxReq
	if step <= 0 || step > size {
		step = size
	}
	for done := int64(0); done < size; done += step {
		n := step
		if size-done < n {
			n = size - done
		}
		w.send(256)
		w.now = w.srv.read(w.now, offset+done, n)
		if w.srv.bail {
			return
		}
		w.send(n)
	}
}

// fsync charges MPI_File_sync: drain every cache-wrapped target (one here).
func (w *walker) fsync() { w.now = w.srv.drain(w.now) }

// dropCaches charges the flush-and-invalidate between benchmark passes.
// Invalidating costs nothing; once drained, the cache holds nothing a read
// could hit.
func (w *walker) dropCaches() {
	w.now = w.srv.drain(w.now)
	w.srv.wrote = false
}

// bailed reports whether the walk hit a situation only the DES can price.
func (w *walker) bailed() bool { return w.srv.bail }
