// Package fsim models the global filesystems of the paper's four I/O
// configurations: NFS (one server, all traffic through its NIC), PVFS2-like
// striping over NASD I/O nodes, Lustre-like striping over OSS nodes, and
// plain local filesystems. All four are instances of one mechanism — a set
// of storage targets behind a network fabric with round-robin striping —
// differing only in target count, stripe size, per-target device and cache
// policy. That uniformity is what lets the paper's methodology compare them
// with a single benchmark surface.
package fsim

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/faults"
	"iophases/internal/netsim"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// fsMetrics bundles the run-telemetry handles shared by every FS instance.
// All handles are nil unless telemetry was enabled before New ran.
type fsMetrics struct {
	opens     *obs.Counter
	creates   *obs.Counter
	metaOps   *obs.Counter
	writeSize *obs.Histogram // client-extent sizes, bytes
	readSize  *obs.Histogram
}

func newFSMetrics() fsMetrics {
	h := obs.Hot()
	if h == nil {
		return fsMetrics{}
	}
	return fsMetrics{
		opens:     h.Counter("fsim/opens"),
		creates:   h.Counter("fsim/creates"),
		metaOps:   h.Counter("fsim/meta_ops"),
		writeSize: h.Histogram("fsim/write_size"),
		readSize:  h.Histogram("fsim/read_size"),
	}
}

// Target is one storage server: a fabric endpoint plus the device (possibly
// cache-wrapped) that holds its share of every file's stripes.
type Target struct {
	Node string         // fabric endpoint name
	Dev  disksim.Device // WriteCache wraps count as Device too
}

// Params configure a filesystem instance.
type Params struct {
	Name       string
	Kind       string // "local" | "nfs" | "pvfs2" | "lustre"
	Targets    []Target
	StripeSize int64 // bytes per target per stripe row
	// FileStripeCount is how many targets one file stripes over
	// (Lustre's stripe_count). 0 or >= len(Targets) stripes every file
	// over all targets (PVFS2 behaviour). Files are assigned target
	// subsets round-robin in creation order.
	FileStripeCount int
	MetaNode        string         // metadata server endpoint ("" = first target)
	MetaCost        units.Duration // per-metadata-operation service time
	// MaxServerRequest is the granularity a storage server processes
	// requests at (NFS wsize / PVFS2 flow buffer / Lustre RPC size).
	// Larger client extents are issued to the device in pieces of this
	// size, so concurrent streams genuinely interleave at the disk —
	// the mechanism that keeps measured bandwidth well below the
	// device peak in Tables IX and X. 0 means unlimited.
	MaxServerRequest int64
}

// DefaultMetaCost is the metadata-operation service time used when Params
// leaves MetaCost zero. Exported so the analytic fast path resolves the
// same effective cost from a cluster spec.
const DefaultMetaCost = 200 * units.Microsecond

// EffectiveStripeCount reports how many of ntargets a new file stripes
// over given a FileStripeCount setting — allocateTargets' clamping rule,
// exported for the fast path's single-target admissibility check.
func EffectiveStripeCount(stripeCount, ntargets int) int {
	if stripeCount <= 0 || stripeCount > ntargets {
		return ntargets
	}
	return stripeCount
}

// Account accumulates one application's share of filesystem traffic.
// Attach one to every handle an application opens (File.SetAccount) and
// the data-path totals split cleanly per app: when every handle on a
// filesystem carries an account, the accounts' byte totals sum exactly to
// the filesystem's Traffic() totals — the conservation law co-execution
// reports are checked against. Fields are plain ints: the DES executes
// all procs on one goroutine, so no atomics are needed.
type Account struct {
	Name         string // application label, for reports
	BytesWritten int64  // client extent bytes successfully written
	BytesRead    int64
	Writes       int64 // successful data operations (post-retry)
	Reads        int64
	NetBytes     int64 // fabric payload attributed to this app's data path
}

// FS is a simulated global filesystem.
type FS struct {
	eng     *des.Engine
	fab     *netsim.Fabric
	params  Params
	files   map[string]*fileMeta
	opens   int64
	created int64
	written int64 // data-path totals, always on (cheap adds)
	read    int64
	met     fsMetrics
	flt     *faults.Injector // nil on a healthy cluster
	// chunkName is the stripe helper procs' name, built once here rather
	// than on every fanned-out request.
	chunkName string
}

type fileMeta struct {
	size    int64
	targets []int // indices into params.Targets this file stripes over
}

// New creates a filesystem over fabric endpoints. Every target node must be
// registered in the fabric.
func New(eng *des.Engine, fab *netsim.Fabric, params Params) *FS {
	if len(params.Targets) == 0 {
		panic(fmt.Sprintf("fsim: %q has no targets", params.Name))
	}
	if params.StripeSize <= 0 {
		panic(fmt.Sprintf("fsim: %q stripe size %d", params.Name, params.StripeSize))
	}
	for _, t := range params.Targets {
		if !fab.HasEndpoint(t.Node) {
			panic(fmt.Sprintf("fsim: target node %q not in fabric", t.Node))
		}
	}
	if params.MetaNode == "" {
		params.MetaNode = params.Targets[0].Node
	}
	if params.MetaCost == 0 {
		params.MetaCost = DefaultMetaCost
	}
	return &FS{eng: eng, fab: fab, params: params, files: make(map[string]*fileMeta),
		met: newFSMetrics(), flt: faults.For(eng), chunkName: params.Name + "/chunk"}
}

// Name reports the filesystem instance name.
func (fs *FS) Name() string { return fs.params.Name }

// Kind reports the filesystem flavour ("nfs", "pvfs2", "lustre", "local").
func (fs *FS) Kind() string { return fs.params.Kind }

// Targets exposes the storage targets (for monitoring and peak math).
func (fs *FS) Targets() []Target { return fs.params.Targets }

// StripeSize reports the striping unit.
func (fs *FS) StripeSize() int64 { return fs.params.StripeSize }

// Traffic reports the filesystem's lifetime data-path totals: client
// extent bytes successfully written and read, across every file and every
// application sharing the instance.
func (fs *FS) Traffic() (written, read int64) { return fs.written, fs.read }

// File is an open handle. Handles are cheap descriptors; all state lives in
// the filesystem.
type File struct {
	fs   *FS
	name string
	acct *Account // nil outside co-execution
}

// SetAccount attributes this handle's subsequent data operations to an
// application account. Pass nil to detach.
func (f *File) SetAccount(a *Account) { f.acct = a }

// Open creates-or-opens a file from a client node, paying one metadata
// round trip.
func (fs *FS) Open(p *des.Proc, client, name string) *File {
	fs.metaOp(p, client)
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = &fileMeta{targets: fs.allocateTargets()}
		fs.created++
		fs.met.creates.Inc()
	}
	fs.opens++
	fs.met.opens.Inc()
	return &File{fs: fs, name: name}
}

// allocateTargets picks the target subset for a new file: stripe over all
// targets unless FileStripeCount narrows it, in which case consecutive
// files start on rotating targets (Lustre's round-robin OST allocator).
func (fs *FS) allocateTargets() []int {
	n := len(fs.params.Targets)
	sc := EffectiveStripeCount(fs.params.FileStripeCount, n)
	start := int(fs.created) % n
	out := make([]int, sc)
	for i := 0; i < sc; i++ {
		out[i] = (start + i) % n
	}
	return out
}

// metaOp charges a metadata request: small message to the MDS plus service
// time.
func (fs *FS) metaOp(p *des.Proc, client string) {
	fs.fab.Send(p, client, fs.params.MetaNode, 1024)
	p.Sleep(fs.params.MetaCost)
	fs.met.metaOps.Inc()
}

// ChargeMetaOp exposes the metadata-operation cost to upper layers (e.g.
// MPI-IO shared file pointers, which serialize through the target in real
// implementations).
func (fs *FS) ChargeMetaOp(p *des.Proc, client string) { fs.metaOp(p, client) }

// Name reports the file's path.
func (f *File) Name() string { return f.name }

// Size reports the current file size (max written extent).
func (f *File) Size() int64 { return f.fs.files[f.name].size }

// Close releases the handle with one metadata operation.
func (f *File) Close(p *des.Proc, client string) {
	f.fs.metaOp(p, client)
}

// stripeBuf sizes the stack buffer Read and Write split an extent into:
// files striped over more targets than this spill to the heap.
const stripeBuf = 16

// extentChunk is one target's share of a striped extent. target indexes the
// file's target subset, not the global target list.
type extentChunk struct {
	target int
	offset int64 // target-local offset
	size   int64
}

// stripeExtent appends a file extent's split across ntargets to buf:
// round-robin by StripeSize, one chunk per touched target (successive
// stripe rows are contiguous in target-local space), in target order.
// The layout is disksim.Stripe's, the one RAID arrays use. Callers pass
// a buffer on their own stack: the chunks must outlive the parked
// runChunks, so no buffer another process could write will do.
func (fs *FS) stripeExtent(buf []extentChunk, ntargets int, offset, size int64) []extentChunk {
	s := disksim.NewStripe(fs.params.StripeSize, ntargets, offset, size)
	for t := 0; t < ntargets; t++ {
		if local, n, ok := s.Run(t); ok {
			buf = append(buf, extentChunk{target: t, offset: local, size: n})
		}
	}
	return buf
}

// Write moves size bytes from the client node into the file at offset:
// network transfer to each involved target, then the target device write.
// Chunks proceed in parallel across targets — the aggregation mechanism
// that makes striped filesystems outrun a single NFS server.
//
// The returned error is non-nil only under an attached fault schedule
// with transient-error effects (faults.ErrTransient); callers on healthy
// clusters may ignore it.
func (f *File) Write(p *des.Proc, client string, offset, size int64) error {
	fs := f.fs
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("fsim: write off=%d size=%d", offset, size))
	}
	if size == 0 {
		return nil
	}
	fs.met.writeSize.Observe(size)
	meta := fs.files[f.name]
	var buf [stripeBuf]extentChunk
	chunks := fs.stripeExtent(buf[:0], len(meta.targets), offset, size)
	if err := fs.runChunks(p, client, meta.targets, chunks, true); err != nil {
		return err
	}
	if end := offset + size; end > meta.size {
		meta.size = end
	}
	fs.written += size
	if a := f.acct; a != nil {
		a.BytesWritten += size
		a.Writes++
		a.NetBytes += size // write data to the targets
	}
	return nil
}

// Read moves size bytes from the file into the client node: target device
// read, then network transfer back. Error semantics as for Write.
func (f *File) Read(p *des.Proc, client string, offset, size int64) error {
	fs := f.fs
	if size < 0 || offset < 0 {
		panic(fmt.Sprintf("fsim: read off=%d size=%d", offset, size))
	}
	if size == 0 {
		return nil
	}
	fs.met.readSize.Observe(size)
	meta := fs.files[f.name]
	var buf [stripeBuf]extentChunk
	chunks := fs.stripeExtent(buf[:0], len(meta.targets), offset, size)
	if err := fs.runChunks(p, client, meta.targets, chunks, false); err != nil {
		return err
	}
	fs.read += size
	if a := f.acct; a != nil {
		a.BytesRead += size
		a.Reads++
		// Data back to the client plus one 256-byte request message per
		// server-granularity step — the same payloads chunkOp put on the
		// fabric, tallied here so the hot closures stay untouched.
		a.NetBytes += size + 256*fs.requestMessages(chunks)
	}
	return nil
}

// requestMessages counts the per-step read request messages chunkOp issues
// for a chunk set, given the server request granularity.
func (fs *FS) requestMessages(chunks []extentChunk) int64 {
	var n int64
	for _, c := range chunks {
		step := fs.params.MaxServerRequest
		if step <= 0 || step > c.size {
			step = c.size
		}
		n += (c.size + step - 1) / step
	}
	return n
}

// runChunks executes per-target chunk operations, in parallel when more
// than one target is involved. The healthy path (no injector) spawns the
// same closures as the seed — no error slice, no extra captures — so the
// allocs/op gate holds; only faulted clusters pay for error collection.
func (fs *FS) runChunks(p *des.Proc, client string, targets []int, chunks []extentChunk, write bool) error {
	if len(chunks) == 1 {
		return fs.chunkOp(p, client, targets, chunks[0], write)
	}
	wg := des.NewWaitGroup(fs.eng)
	wg.Add(len(chunks))
	if fs.flt == nil {
		for _, c := range chunks {
			c := c
			fs.eng.Spawn(fs.chunkName, func(hp *des.Proc) {
				fs.chunkOp(hp, client, targets, c, write)
				wg.Done()
			})
		}
		wg.Wait(p)
		return nil
	}
	errs := make([]error, len(chunks))
	for i, c := range chunks {
		i, c := i, c
		fs.eng.Spawn(fs.chunkName, func(hp *des.Proc) {
			errs[i] = fs.chunkOp(hp, client, targets, c, write)
			wg.Done()
		})
	}
	wg.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (fs *FS) chunkOp(p *des.Proc, client string, targets []int, c extentChunk, write bool) error {
	if fs.flt != nil {
		// Transient server errors surface at request-issue time: the
		// client learns immediately and retries the whole extent, so no
		// partial transfer time is charged here.
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
			// Request message, device read, data back to client.
			fs.fab.Send(p, client, t.Node, 256)
			t.Dev.Read(p, off, n)
			fs.fab.Send(p, t.Node, client, n)
		}
	}
	return nil
}

// Sync drains every cache-wrapped target, modeling fsync/umount.
func (fs *FS) Sync(p *des.Proc) {
	for _, t := range fs.params.Targets {
		if d, ok := t.Dev.(*disksim.WriteCache); ok {
			d.Drain(p)
		}
	}
}

// DropCaches drains every cache-wrapped target and invalidates its
// recently-written index — the flush-and-remount a careful benchmark does
// between its write and read passes.
func (fs *FS) DropCaches(p *des.Proc) {
	fs.Sync(p)
	for _, t := range fs.params.Targets {
		if d, ok := t.Dev.(*disksim.WriteCache); ok {
			d.Invalidate()
		}
	}
}

// PeakDeviceBandwidth sums the targets' streaming device rates — the
// quantity Eq. 3–4 of the paper compute from IOzone (BW_PK): the ideal
// parallel device ceiling with no network in the way.
func (fs *FS) PeakDeviceBandwidth(write bool) units.Bandwidth {
	var sum units.Bandwidth
	for _, t := range fs.params.Targets {
		sum += deviceStreamRate(t.Dev, write)
	}
	return sum
}

// deviceStreamRate estimates one device's streaming rate by its type.
func deviceStreamRate(dev disksim.Device, write bool) units.Bandwidth {
	switch d := dev.(type) {
	case *disksim.Array:
		return d.PeakBandwidth(write)
	case *disksim.WriteCache:
		return deviceStreamRate(d.Inner(), write)
	case *disksim.Disk:
		return d.StreamRate(write)
	default:
		panic(fmt.Sprintf("fsim: unknown device type %T", dev))
	}
}
