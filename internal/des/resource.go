package des

import "fmt"

// Resource is a counted resource with FIFO admission, the building block for
// links, disk queues and server threads. Acquire blocks until the requested
// units are available; waiters are admitted strictly in arrival order (no
// barging), so a large request at the head of the queue is not starved by
// smaller ones behind it. AcquireThen queues a callback in the same FIFO,
// for a request that needs no process of its own.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	// waiters[head:] are the queued waiters. Dequeuing advances head
	// instead of re-slicing so the backing array's capacity is reused —
	// admission churn on a busy resource allocates nothing in steady
	// state (see enqueue).
	waiters []resWaiter
	head    int
}

// resWaiter is a blocked process, or with p nil a callback.
type resWaiter struct {
	p  *Proc
	fn func()
	n  int
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
	if r.admit(n) {
		return
	}
	r.enqueue(resWaiter{p: p, n: n})
	p.block("acquire", r.name)
}

// AcquireThen obtains n units for fn: when they are free, fn runs at once;
// otherwise fn waits in the FIFO with the blocked processes, and the
// Release that admits it schedules fn as a zero-delay event at the queue
// position where a process's resume would go. Whatever fn starts must
// Release the units.
func (r *Resource) AcquireThen(n int, fn func()) {
	if r.admit(n) {
		fn()
		return
	}
	r.enqueue(resWaiter{fn: fn, n: n})
}

// enqueue appends a waiter. When the array is full and its admitted front
// is at least half of it, the queued waiters slide to the front first, so
// a resource that never drains reuses its array instead of growing it by
// every waiter it ever had.
func (r *Resource) enqueue(w resWaiter) {
	if len(r.waiters) == cap(r.waiters) && r.head > 0 && r.head >= len(r.waiters)/2 {
		n := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[n:])
		r.waiters, r.head = r.waiters[:n], 0
	}
	r.waiters = append(r.waiters, w)
}

// admit takes n units if nothing is queued and they are free.
func (r *Resource) admit(n int) bool {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("des: acquire %d of %q (capacity %d)", n, r.name, r.capacity))
	}
	if r.head == len(r.waiters) && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and admits as many queued waiters as now fit, in
// FIFO order. Admitted processes resume, and admitted callbacks run, via
// zero-delay events, so wake-up order matches queue order
// deterministically.
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
		if w.p != nil {
			r.eng.scheduleResume(0, w.p) // closure-free wakeup
		} else {
			r.eng.Schedule(0, w.fn)
		}
	}
	if r.head == len(r.waiters) {
		r.waiters = r.waiters[:0]
		r.head = 0
	}
}
