package des

import "fmt"

// Resource is a counted resource with FIFO admission, the building block for
// links, disk queues and server threads. Acquire blocks until the requested
// units are available; waiters are admitted strictly in arrival order (no
// barging), so a large request at the head of the queue is not starved by
// smaller ones behind it.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	// waiters[head:] are the queued waiters. Dequeuing advances head
	// instead of re-slicing so the backing array's capacity is reused —
	// admission churn on a busy resource allocates nothing in steady
	// state.
	waiters []resWaiter
	head    int
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given total capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("des: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Acquire obtains n units, blocking the process until they are free.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d of %q (capacity %d)", n, r.name, r.capacity))
	}
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters = append(r.waiters, resWaiter{p, n})
	p.block("acquire", r.name)
}

// Release returns n units and admits as many queued waiters as now fit, in
// FIFO order. Admitted processes resume via zero-delay events so wake-up
// order matches queue order deterministically.
func (r *Resource) Release(n int) {
	if n <= 0 || r.inUse < n {
		panic(fmt.Sprintf("des: release %d of %q (in use %d)", n, r.name, r.inUse))
	}
	r.inUse -= n
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.waiters[r.head] = resWaiter{}
		r.head++
		r.eng.scheduleResume(0, w.p) // closure-free wakeup
	}
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	}
}
