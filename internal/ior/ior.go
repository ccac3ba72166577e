// Package ior re-implements the IOR benchmark (LLNL's Interleaved-Or-Random
// parallel I/O benchmark) against the simulated cluster, exposing the
// parameter surface of Table III: file size via block/segment counts,
// request (transfer) size -t, block size -b, segment count -s, access type
// -F (file per process), collective -c, np, and sequential or interleaved
// block layouts. The paper uses IOR at the I/O-library level both to
// characterize configurations exhaustively and — the core of §III-B — to
// replay each I/O phase of an application model on a target subsystem,
// yielding BW_CH.
package ior

import (
	"fmt"
	"math"
	"math/rand"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// Params mirror IOR's command-line surface (Table III).
type Params struct {
	NP          int
	BlockSize   int64 // -b: contiguous bytes per process per segment
	Transfer    int64 // -t: bytes per I/O call
	Segments    int   // -s
	FilePerProc bool  // -F
	Collective  bool  // -c
	Interleaved bool  // transfer-interleaved layout (strided blocks)
	// RandomOrder visits each rank's chunks in a deterministic shuffled
	// order (IOR -z), the "random" access mode of Table III.
	RandomOrder bool
	Seed        int64 // shuffle seed for RandomOrder
	DoWrite     bool  // -w
	DoRead      bool  // -r
	// ReorderRead reads the block of the next rank (IOR -C), defeating
	// locality between the write and read passes.
	ReorderRead bool
	// Fsync includes an MPI_File_sync in the timed write pass (IOR -e),
	// so server write-back caches cannot fake bandwidth the devices
	// never delivered. Phase replays always set it.
	Fsync bool
	// TraceRun records the benchmark's own MPI-IO activity in PAS2P
	// format — used to extract the I/O model *of IOR* (the paper's
	// Figure 6 example). Traced runs never enter the replay cache:
	// their value is the per-run mutable trace.
	TraceRun bool
}

// testFile is the one file every IOR run writes and reads.
const testFile = "/ior.testfile"

// The simulator's cost grows with a pass's bytes (every transfer is cut
// into stripe chunks and device requests) and with its transfer count
// (every transfer is an MPI-IO call on each rank's process), so Validate
// bounds both, and a model or flag cannot ask for days of simulation.
// The times below are for configA with the fast path off, on a 2-vCPU
// host.
//
// MaxPassBytes bounds one pass's volume b·np·s. It is 8.09× the largest
// pass `experiments -run all` makes (135,834,624,000 B). A write pass at
// it (np 4, b 256 GiB, t 256 MiB) simulates in 5.9 s.
//
// MaxPassTransfers bounds one pass's transfer count (b/t)·np·s. It is
// 693× the largest count `experiments -run all` makes (6,050). A write
// pass at it (np 4, b 4 GiB, t 4 KiB) simulates in 11.0 s, and one at
// both caps (np 4, b 256 GiB, t 256 KiB) in 11.1 s.
const (
	MaxPassBytes     = 1 << 40
	MaxPassTransfers = 1 << 22
)

// Validate checks parameter consistency and the per-pass caps.
func (p Params) Validate() error {
	if p.NP <= 0 {
		return fmt.Errorf("ior: np=%d", p.NP)
	}
	if p.BlockSize <= 0 || p.Transfer <= 0 || p.Segments <= 0 {
		return fmt.Errorf("ior: b=%d t=%d s=%d", p.BlockSize, p.Transfer, p.Segments)
	}
	if p.BlockSize%p.Transfer != 0 {
		return fmt.Errorf("ior: block %d not a multiple of transfer %d", p.BlockSize, p.Transfer)
	}
	// Every offset lies below the file extent b·np·s, checked without
	// forming the product: b·np·s <= max iff b <= max/np/s.
	if p.BlockSize > math.MaxInt64/int64(p.NP)/int64(p.Segments) {
		return fmt.Errorf("ior: file extent b=%d × np=%d × s=%d overflows int64", p.BlockSize, p.NP, p.Segments)
	}
	// The caps are checked the same way.
	if p.BlockSize > MaxPassBytes/int64(p.NP)/int64(p.Segments) {
		return fmt.Errorf("ior: pass volume b=%d × np=%d × s=%d exceeds MaxPassBytes (%d)",
			p.BlockSize, p.NP, p.Segments, int64(MaxPassBytes))
	}
	if p.BlockSize/p.Transfer > MaxPassTransfers/int64(p.NP)/int64(p.Segments) {
		return fmt.Errorf("ior: pass transfers b/t=%d × np=%d × s=%d exceed MaxPassTransfers (%d)",
			p.BlockSize/p.Transfer, p.NP, p.Segments, MaxPassTransfers)
	}
	if !p.DoWrite && !p.DoRead {
		return fmt.Errorf("ior: neither write nor read selected")
	}
	return nil
}

// AggregateBytes reports the total data volume per pass.
func (p Params) AggregateBytes() int64 {
	return p.BlockSize * int64(p.NP) * int64(p.Segments)
}

// Result carries the Table V output metrics.
type Result struct {
	Params    Params
	WriteTime units.Duration
	ReadTime  units.Duration
	WriteBW   units.Bandwidth // mean aggregate transfer rate, MB/s
	ReadBW    units.Bandwidth
	WriteOps  int64
	ReadOps   int64
	IOPSw     float64
	IOPSr     float64
	Trace     *trace.Set // non-nil when Params.TraceRun
}

// Offset reports the file offset (bytes) of chunk i of segment s for a
// rank under the chosen layout. Exported so the analytic fast path
// (internal/fastpath) walks the exact access pattern RunOn issues.
func (p Params) Offset(rank, seg, chunk int) int64 {
	if p.FilePerProc {
		// Private file: plain sequential.
		return int64(seg)*p.BlockSize + int64(chunk)*p.Transfer
	}
	segBase := int64(seg) * p.BlockSize * int64(p.NP)
	if p.Interleaved {
		return segBase + int64(chunk)*int64(p.NP)*p.Transfer + int64(rank)*p.Transfer
	}
	return segBase + int64(rank)*p.BlockSize + int64(chunk)*p.Transfer
}

// ChunkOrder returns the order a rank visits its block's chunks in:
// identity, or the deterministic per-rank shuffle of RandomOrder (IOR -z).
// RunOn and the fast path derive their access sequences from this one
// function, so the two walk byte-identical patterns.
func (p Params) ChunkOrder(rank int) []int {
	chunks := int(p.BlockSize / p.Transfer)
	order := make([]int, chunks)
	for i := range order {
		order[i] = i
	}
	if p.RandomOrder {
		rng := rand.New(rand.NewSource(p.Seed + int64(rank) + 1))
		rng.Shuffle(chunks, func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	return order
}

// Run executes IOR on a freshly built cluster.
func Run(spec cluster.Spec, p Params) Result {
	c := cluster.Build(spec)
	return RunOn(c, p)
}

// RunOn executes IOR on an existing cluster (its engine must be idle).
func RunOn(c *cluster.Cluster, p Params) Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nodes := make([]string, p.NP)
	for i := range nodes {
		nodes[i] = c.NodeOfRank(i, p.NP)
	}
	w := mpi.NewWorld(c.Eng, c.Fabric, nodes)
	sys := mpiio.NewSystem(c.FS, w)
	if p.TraceRun {
		sys.Tracer = trace.NewSet("ior", c.Spec.Name, p.NP)
	}
	chunks := int(p.BlockSize / p.Transfer)

	res := Result{Params: p}
	var writeStart, writeEnd, readStart, readEnd units.Duration
	access := mpiio.Shared
	if p.FilePerProc {
		access = mpiio.Unique
	}
	w.Run(func(r *mpi.Rank) {
		f := sys.Open(r, testFile, access)
		chunkOrder := p.ChunkOrder(r.ID())
		pass := func(write bool) (units.Duration, units.Duration) {
			r.Barrier()
			start := r.Now()
			for seg := 0; seg < p.Segments; seg++ {
				for _, ch := range chunkOrder {
					rank := r.ID()
					if !write && p.ReorderRead && !p.FilePerProc {
						rank = (r.ID() + 1) % p.NP
					}
					off := p.Offset(rank, seg, ch)
					switch {
					case write && p.Collective:
						f.WriteAtAll(r, off, p.Transfer)
					case write:
						f.WriteAt(r, off, p.Transfer)
					case p.Collective:
						f.ReadAtAll(r, off, p.Transfer)
					default:
						f.ReadAt(r, off, p.Transfer)
					}
				}
			}
			if write && p.Fsync {
				f.Sync(r) // IOR -e: fsync inside the timed window
			}
			r.Barrier()
			return start, r.Now()
		}
		if p.DoWrite {
			s, e := pass(true)
			if r.ID() == 0 {
				writeStart, writeEnd = s, e
			}
		}
		if p.DoWrite && p.DoRead {
			// Flush and drop server caches between passes (the
			// cache-defeating remount every serious harness does),
			// so the read pass measures storage, not the server's
			// page cache.
			r.Sync()
			if r.ID() == 0 {
				c.FS.DropCaches(r.Proc())
			}
			r.Sync()
		}
		if p.DoRead {
			s, e := pass(false)
			if r.ID() == 0 {
				readStart, readEnd = s, e
			}
		}
		f.Close(r)
	})

	res.Trace = sys.Tracer
	vol := p.AggregateBytes()
	ops := int64(chunks) * int64(p.Segments) * int64(p.NP)
	if p.DoWrite {
		res.WriteTime = writeEnd - writeStart
		res.WriteBW = units.BandwidthOf(vol, res.WriteTime)
		res.WriteOps = ops
		if sec := res.WriteTime.Seconds(); sec > 0 {
			res.IOPSw = float64(ops) / sec
		}
	}
	if p.DoRead {
		res.ReadTime = readEnd - readStart
		res.ReadBW = units.BandwidthOf(vol, res.ReadTime)
		res.ReadOps = ops
		if sec := res.ReadTime.Seconds(); sec > 0 {
			res.IOPSr = float64(ops) / sec
		}
	}
	return res
}

// FromReplay converts a phase replay spec (§III-B: s=1, b=weight/np, t=rs,
// -F and -c from metadata) into IOR parameters. Mixed phases run both
// passes; pure phases run only their direction.
func FromReplay(rs core.ReplaySpec) Params {
	p := Params{
		NP:          rs.NP,
		BlockSize:   rs.BlockPerProc,
		Transfer:    rs.Transfer,
		Segments:    rs.Segments,
		FilePerProc: rs.FilePerProc,
		Collective:  rs.Collective,
		Fsync:       true,
	}
	switch rs.Direction {
	case core.Write:
		p.DoWrite = true
	case core.Read:
		p.DoWrite, p.DoRead, p.ReorderRead = true, true, true
	case core.Mixed:
		p.DoWrite, p.DoRead, p.ReorderRead = true, true, true
	}
	// Transfers must divide the block; phase weights are always
	// rep·rs·np so block = rep·rs divides cleanly, but guard against
	// degenerate models. A non-positive transfer is left for Validate.
	if p.Transfer > 0 && p.BlockSize%p.Transfer != 0 {
		p.BlockSize = (p.BlockSize / p.Transfer) * p.Transfer
		if p.BlockSize == 0 {
			p.BlockSize = p.Transfer
		}
	}
	return p
}

// ValidateModel reports the first phase of m that cannot be replayed,
// naming its id: a phase needs np ≥ 1, at least one operation, rep ≥ 1,
// replay parameters that Validate accepts, and a weight of exactly
// rep·Σsize·np, the volume extraction and core.Rescale give it. The IOR
// replay transfers slot 0's request size and the phase-faithful replay
// every slot's, so each slot's size is checked as the transfer. A model
// read from JSON, or extracted from a corrupt trace, can break any of
// these, and each would otherwise panic mid-prediction.
//
// The weight identity is what bounds the phase-faithful replay and
// co-execution, which loop rep times over every slot on every rank:
// with it, the smallest slot's transfer cap gives
// rep·len(ops)·np ≤ MaxPassTransfers.
func ValidateModel(m *core.Model) error {
	for i, pm := range m.Phases {
		if pm == nil {
			return fmt.Errorf("model phase entry %d is null", i)
		}
		var err error
		switch {
		case pm.NP < 1:
			err = fmt.Errorf("np %d, want at least 1", pm.NP)
		case len(pm.Ops) == 0:
			err = fmt.Errorf("no operations")
		case pm.Rep < 1:
			err = fmt.Errorf("rep %d, want at least 1", pm.Rep)
		default:
			rs := pm.Replay(m.AccessType)
			for _, op := range pm.Ops {
				rs.Transfer = op.Size
				if err = FromReplay(rs).Validate(); err != nil {
					break
				}
			}
			if err == nil {
				err = checkWeight(pm)
			}
		}
		if err != nil {
			return fmt.Errorf("model phase %d: %w", pm.ID, err)
		}
	}
	return nil
}

// checkWeight reports an error unless pm's weight is rep·Σsize·np. The
// caller has checked that rep and np are positive and every size is.
func checkWeight(pm *core.PhaseModel) error {
	v, ok := int64(0), true
	for _, op := range pm.Ops {
		ok = ok && op.Size <= math.MaxInt64-v
		v += op.Size
	}
	for _, n := range [2]int64{int64(pm.Rep), int64(pm.NP)} {
		ok = ok && v <= math.MaxInt64/n
		v *= n
	}
	switch {
	case !ok:
		return fmt.Errorf("rep·Σsize·np (rep %d, %d ops, np %d) overflows int64", pm.Rep, len(pm.Ops), pm.NP)
	case v != pm.Weight:
		return fmt.Errorf("weight %d, want rep·Σsize·np = %d", pm.Weight, v)
	}
	return nil
}
