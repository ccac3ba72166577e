package disksim

import (
	"fmt"

	"iophases/internal/des"
	"iophases/internal/units"
)

// WriteCache is a write-back cache in front of a Device: writes are
// absorbed at memory speed while the cache has room and a background
// flusher drains dirty data to the device. Reads of recently written data
// hit the cache. This is the OS page cache / RAID controller cache whose
// effect makes measured write bandwidth exceed read bandwidth on the
// paper's NFS configuration (Table IX: 89–93 MB/s writes vs 66–68 MB/s
// reads).
type WriteCache struct {
	eng      *des.Engine
	name     string
	dev      Device
	capacity int64
	memBW    units.Bandwidth
	chunk    int64

	level    int64 // dirty bytes not yet flushed
	dirty    CacheLedger
	flushing bool
	waiters  []*des.Proc

	// Recently-written index: a FIFO of write extents bounded to the
	// cache capacity in bytes, approximating an LRU page cache. Reads
	// hit only data among the most recent `capacity` bytes written —
	// older data has been evicted, as on a real server under streaming
	// load (the paper's FZ ≥ 2·RAM rule exists to force exactly this).
	recent recentIndex
}

type cacheExtent struct {
	offset, size int64
}

// CacheLedger tracks a WriteCache's dirty extents in offset order plus the
// flusher's SCAN (elevator) position: flushing resumes at or above scanPos
// and wraps when nothing dirty remains higher. Without it the flusher
// would restart at the lowest dirty offset after every chunk and thrash
// between concurrent streams' regions, paying a seek per chunk. The fast
// path's flusher model gathers from one too, so its chunks come in exactly
// the simulated flusher's order. Reset readies one for use.
type CacheLedger struct {
	extents []cacheExtent
	scanPos int64
	chunk   int64 // flusher request size
}

// recentIndex is the recently-written read index behind WriteCache.Read.
// Only the simulated cache keeps one: the fast path bails on a read
// after a cached write instead of pricing a hit.
type recentIndex struct {
	m        map[int64]recentWrite // offset -> the latest write there
	q        []recentWrite         // remembered writes, oldest first, from q[head]
	head     int
	seq      uint64 // writes remembered since the last reset
	bytes    int64
	capacity int64
}

// recentWrite is one remembered write. seq numbers the writes, so that
// evicting a write un-indexes its offset only if no later write of that
// offset has replaced it.
type recentWrite struct {
	offset, end int64
	seq         uint64
}

// CacheParams configure a WriteCache.
type CacheParams struct {
	Capacity int64           // dirty-data limit
	MemBW    units.Bandwidth // absorption rate (memory copy)
	Chunk    int64           // flusher request size
}

// DefaultCacheParams models a node with ~1–2 GB RAM dedicating a few
// hundred MB to dirty pages.
func DefaultCacheParams() CacheParams {
	return CacheParams{Capacity: 256 * units.MiB, MemBW: units.GBps(2), Chunk: 4 * units.MiB}
}

// NewWriteCache wraps dev.
func NewWriteCache(eng *des.Engine, name string, dev Device, params CacheParams) *WriteCache {
	if params.Capacity <= 0 || params.MemBW <= 0 || params.Chunk <= 0 {
		panic(fmt.Sprintf("disksim: cache %q bad params %+v", name, params))
	}
	c := &WriteCache{
		eng:      eng,
		name:     name,
		dev:      dev,
		capacity: params.Capacity,
		memBW:    params.MemBW,
		chunk:    params.Chunk,
	}
	c.dirty.Reset(params.Chunk)
	c.recent.reset(params.Capacity)
	return c
}

func (c *WriteCache) Name() string    { return c.name }
func (c *WriteCache) Capacity() int64 { return c.dev.Capacity() }

// Write absorbs data at memory speed while space is available and blocks
// behind the flusher when the cache is full, pacing sustained writes at
// device speed — the fluid write-back model.
func (c *WriteCache) Write(p *des.Proc, offset, size int64) {
	remaining := size
	for remaining > 0 {
		for c.capacity-c.level <= 0 {
			c.waiters = append(c.waiters, p)
			p.Park("cache full", c.name)
		}
		n := c.capacity - c.level
		if n > remaining {
			n = remaining
		}
		p.Sleep(units.TransferTime(n, c.memBW))
		c.level += n
		c.dirty.Add(offset, n)
		c.recent.remember(cacheExtent{offset, n})
		offset += n
		remaining -= n
		c.kickFlusher()
	}
}

// Reset empties the ledger for a cache with the given flush chunk size,
// keeping its extent buffer.
func (s *CacheLedger) Reset(chunk int64) {
	*s = CacheLedger{extents: s.extents[:0], chunk: chunk}
}

// Dirty reports whether any extent remains unflushed.
func (s *CacheLedger) Dirty() bool { return len(s.extents) > 0 }

// Add records a deposit of [offset, offset+size) in the offset-sorted dirty
// list, merging with neighbours — the page cache's per-file radix tree,
// which lets the flusher write large sequential clusters no matter how
// many concurrent streams interleaved their arrivals.
func (s *CacheLedger) Add(offset, size int64) {
	e := cacheExtent{offset, size}
	i := 0
	for i < len(s.extents) && s.extents[i].offset < e.offset {
		i++
	}
	// Merge with predecessor.
	if i > 0 && s.extents[i-1].offset+s.extents[i-1].size == e.offset {
		s.extents[i-1].size += e.size
		// And possibly with successor.
		if i < len(s.extents) && s.extents[i-1].offset+s.extents[i-1].size == s.extents[i].offset {
			s.extents[i-1].size += s.extents[i].size
			s.extents = append(s.extents[:i], s.extents[i+1:]...)
		}
		return
	}
	// Merge with successor.
	if i < len(s.extents) && e.offset+e.size == s.extents[i].offset {
		s.extents[i].offset = e.offset
		s.extents[i].size += e.size
		return
	}
	s.extents = append(s.extents, cacheExtent{})
	copy(s.extents[i+1:], s.extents[i:])
	s.extents[i] = e
}

// remember indexes a written extent and evicts the oldest entries beyond
// the capacity budget.
func (r *recentIndex) remember(e cacheExtent) {
	w := recentWrite{offset: e.offset, end: e.offset + e.size, seq: r.seq}
	r.seq++
	r.m[e.offset] = w
	if len(r.q) == cap(r.q) && r.head > 0 && r.head >= len(r.q)/2 {
		// At least half the queue is evicted: slide the live tail to
		// the front so the append reuses the array instead of growing.
		r.q = r.q[:copy(r.q, r.q[r.head:])]
		r.head = 0
	}
	r.q = append(r.q, w)
	r.bytes += e.size
	for r.bytes > r.capacity && r.head < len(r.q) {
		old := r.q[r.head]
		r.head++
		r.bytes -= old.end - old.offset
		if cur, ok := r.m[old.offset]; ok && cur.seq == old.seq {
			delete(r.m, old.offset)
		}
	}
}

// hit reports whether the whole extent is indexed (at a matching write
// boundary).
func (r *recentIndex) hit(offset, size int64) bool {
	w, ok := r.m[offset]
	return ok && w.end >= offset+size
}

// reset empties the index in place for a capacity-byte budget, keeping
// the map's and the queue's storage.
func (r *recentIndex) reset(capacity int64) {
	if r.m == nil {
		r.m = make(map[int64]recentWrite)
	}
	clear(r.m)
	*r = recentIndex{m: r.m, q: r.q[:0], capacity: capacity}
}

// Read serves cache hits at memory speed and misses from the device. A hit
// requires the whole extent to be among the most recent `capacity` bytes
// written (at a matching write boundary); anything older has been evicted.
func (c *WriteCache) Read(p *des.Proc, offset, size int64) {
	if c.recent.hit(offset, size) {
		p.Sleep(units.TransferTime(size, c.memBW))
		return
	}
	c.dev.Read(p, offset, size)
}

// kickFlusher starts the background drain process if not already running.
func (c *WriteCache) kickFlusher() {
	if c.flushing {
		return
	}
	c.flushing = true
	c.eng.Spawn("flusher:"+c.name, func(fp *des.Proc) {
		for c.dirty.Dirty() {
			off, n := c.dirty.Gather()
			c.dev.Write(fp, off, n)
			c.level -= n
			c.wakeWaiters()
		}
		c.flushing = false
	})
}

// Gather pops up to one chunk of dirty data in elevator order, cutting at
// chunk-aligned boundaries so steady-state flushes stay stripe-aligned.
// Without large aligned flushes, a full cache degenerates into sliver
// writes that force RAID5 read-modify-write on what is really a streaming
// write.
func (s *CacheLedger) Gather() (off, n int64) {
	// SCAN: continue from the elevator position, wrapping to the lowest
	// dirty run when the sweep passes the top.
	i := 0
	for i < len(s.extents) && s.extents[i].offset+s.extents[i].size <= s.scanPos {
		i++
	}
	if i == len(s.extents) {
		i = 0
	}
	ext := &s.extents[i]
	off = ext.offset
	if off < s.scanPos && s.scanPos < off+ext.size {
		off = s.scanPos // resume mid-run after a partial flush
	}
	n = ext.offset + ext.size - off
	if n > s.chunk {
		n = s.chunk
	}
	// Align the cut so subsequent gathers start on chunk boundaries.
	if rem := (off + n) % s.chunk; n > rem && off%s.chunk != 0 {
		n -= rem
	}
	// Remove [off, off+n) from the run, splitting if needed.
	switch {
	case off == ext.offset && n == ext.size:
		s.extents = append(s.extents[:i], s.extents[i+1:]...)
	case off == ext.offset:
		ext.offset += n
		ext.size -= n
	case off+n == ext.offset+ext.size:
		ext.size -= n
	default:
		tail := cacheExtent{offset: off + n, size: ext.offset + ext.size - off - n}
		ext.size = off - ext.offset
		s.extents = append(s.extents, cacheExtent{})
		copy(s.extents[i+2:], s.extents[i+1:])
		s.extents[i+1] = tail
	}
	s.scanPos = off + n
	return off, n
}

// wakeWaiters admits blocked writers once a meaningful amount of space is
// free (hysteresis): waking on every freed sliver would let writers refill
// the cache in fragments and re-trigger the sliver cascade.
func (c *WriteCache) wakeWaiters() {
	if free := c.capacity - c.level; free < c.chunk && c.level > 0 {
		return
	}
	waiting := c.waiters
	c.waiters = nil
	for _, w := range waiting {
		c.eng.Unpark(w)
	}
}

// Invalidate clears the recently-written index (echo 3 >
// /proc/sys/vm/drop_caches). Dirty data is unaffected; call Drain first for
// a full flush-and-drop.
func (c *WriteCache) Invalidate() {
	c.recent.reset(c.recent.capacity)
}

// Drain blocks until all dirty data reaches the device (fsync / close).
func (c *WriteCache) Drain(p *des.Proc) {
	for c.level > 0 {
		c.waiters = append(c.waiters, p)
		p.Park("cache drain", c.name)
	}
}

// Level reports current dirty bytes (for tests).
func (c *WriteCache) Level() int64 { return c.level }

// Counters reports the underlying device's counters.
func (c *WriteCache) Counters() Counters { return c.dev.Counters() }

// Inner exposes the wrapped device.
func (c *WriteCache) Inner() Device { return c.dev }
