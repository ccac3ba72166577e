package simcache

import (
	"context"
	"sync"

	"iophases/internal/obs"
)

// Outcome says how Memo.Do produced its value.
type Outcome uint8

const (
	// Computed: this caller ran the computation.
	Computed Outcome = iota
	// Joined: this caller waited for another caller's computation.
	Joined
	// Stored: the value was kept from an earlier computation.
	Stored
)

// Memo is a keyed, bounded, singleflight memo. The first caller of a key
// runs the computation; callers that arrive while it runs wait for its
// value. A finished value is kept only if its computation says so, and at
// most capacity values are kept: the least recently used one is dropped
// first. A value still being computed is never dropped, so no running
// computation is orphaned and none runs twice.
type Memo[V any] struct {
	mu       sync.Mutex
	cells    map[string]*cell[V]
	gen      uint64  // bumped by Reset, which forgets every older cell
	lru      cell[V] // ring sentinel of the kept cells, most recent first
	kept     int
	capacity int

	joins, evictions *obs.Counter
	size             *obs.Gauge
}

// cell is one key's running or kept computation.
type cell[V any] struct {
	key  string
	gen  uint64 // Memo.gen when the cell was made
	val  V
	done bool          // val is final; guarded by Memo.mu
	wait chan struct{} // made when a second caller arrives, closed when done

	prev, next *cell[V] // recency ring, linked once the value is kept
}

// NewMemo returns an empty memo keeping at most capacity values. joins
// counts callers that join a running computation, evictions the kept
// values the cap drops, and size tracks the cells held, running ones
// included; any of them may be nil.
func NewMemo[V any](capacity int, joins, evictions *obs.Counter, size *obs.Gauge) *Memo[V] {
	m := &Memo[V]{
		cells:     make(map[string]*cell[V]),
		capacity:  capacity,
		joins:     joins,
		evictions: evictions,
		size:      size,
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// Do returns key's value. The first caller runs fn; fn's second result
// says whether to keep the value for later callers. A caller that arrives
// while fn runs is counted as a join before it blocks, then gets fn's
// value whether or not it is kept, or ctx.Err() if ctx ends first. If fn
// panics, nothing is kept and the callers waiting on it start over.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func() (V, bool)) (V, Outcome, error) {
	m.mu.Lock()
	if c, ok := m.cells[key]; ok {
		if c.done {
			m.unlink(c)
			m.pushFront(c)
			v := c.val
			m.mu.Unlock()
			return v, Stored, nil
		}
		if c.wait == nil {
			c.wait = make(chan struct{})
		}
		m.mu.Unlock()
		m.joins.Inc()
		select {
		case <-c.wait:
			if !c.done {
				return m.Do(ctx, key, fn)
			}
			return c.val, Joined, nil
		case <-ctx.Done():
			var zero V
			return zero, Joined, ctx.Err()
		}
	}
	c := &cell[V]{key: key, gen: m.gen}
	m.cells[key] = c
	m.size.Set(int64(len(m.cells)))
	m.mu.Unlock()

	finished, keep := false, false
	defer func() { m.settle(c, finished, keep) }()
	c.val, keep = fn()
	finished = true
	return c.val, Computed, nil
}

// settle ends c's computation: it keeps the value, or forgets the cell,
// and wakes c's waiters. A running cell leaves cells only by Reset, so
// one from an older generation is neither kept nor removed, and a newer
// cell for the same key survives.
func (m *Memo[V]) settle(c *cell[V], finished, keep bool) {
	var evicted int64
	m.mu.Lock()
	c.done = finished
	if c.gen == m.gen {
		if finished && keep {
			m.pushFront(c)
			for m.kept++; m.kept > m.capacity; m.kept-- {
				old := m.lru.prev
				m.unlink(old)
				delete(m.cells, old.key)
				evicted++
			}
		} else {
			delete(m.cells, c.key)
		}
		m.size.Set(int64(len(m.cells)))
	}
	if c.wait != nil {
		close(c.wait)
	}
	m.mu.Unlock()
	m.evictions.Add(evicted)
}

func (m *Memo[V]) pushFront(c *cell[V]) {
	c.prev, c.next = &m.lru, m.lru.next
	c.next.prev = c
	m.lru.next = c
}

func (m *Memo[V]) unlink(c *cell[V]) {
	c.prev.next, c.next.prev = c.next, c.prev
}

// Len reports the cells held: kept values plus running computations.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// Reset forgets every cell. Computations still running finish for their
// own waiters but keep nothing.
func (m *Memo[V]) Reset() {
	m.mu.Lock()
	clear(m.cells)
	m.gen++
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.kept = 0
	m.size.Set(0)
	m.mu.Unlock()
}
