package des

import "fmt"

// Barrier blocks processes until a fixed number have arrived, then releases
// them all at the arrival time of the last one — the semantics of
// MPI_Barrier in virtual time. A Barrier is reusable: generation counting
// lets the same ranks synchronize repeatedly.
type Barrier struct {
	eng     *Engine
	name    string
	n       int
	arrived []*Proc
}

// NewBarrier creates a barrier for n processes.
func NewBarrier(eng *Engine, name string, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("des: barrier %q size %d", name, n))
	}
	return &Barrier{eng: eng, name: name, n: n}
}

// Wait blocks until n processes (including the caller) have called Wait in
// the current generation. The last arriver releases the others and returns
// without blocking.
func (b *Barrier) Wait(p *Proc) {
	if len(b.arrived) == b.n-1 {
		// Resume this generation and reuse the backing array for the
		// next one. Safe: the resumed procs only re-enter Wait (and
		// append) after this loop has finished reading the slice.
		waiting := b.arrived
		b.arrived = b.arrived[:0]
		for _, w := range waiting {
			b.eng.scheduleResume(0, w) // closure-free wakeup
		}
		return
	}
	b.arrived = append(b.arrived, p)
	p.block("barrier", b.name)
}

// Mailbox is a blocking point-to-point channel in virtual time, used for
// MPI-style message passing. Senders block until a receiver takes the value
// (rendezvous), matching blocking MPI semantics; buffered delivery is the
// caller's concern.
type Mailbox struct {
	eng     *Engine
	name    string
	items   []interface{}
	getters []*Proc
	cap     int
	putters []mboxPut
}

type mboxPut struct {
	p *Proc
	v interface{}
}

// NewMailbox creates a mailbox with the given buffer capacity; capacity 0
// means every Put rendezvouses with a Get.
func NewMailbox(eng *Engine, name string, capacity int) *Mailbox {
	if capacity < 0 {
		panic(fmt.Sprintf("des: mailbox %q capacity %d", name, capacity))
	}
	return &Mailbox{eng: eng, name: name, cap: capacity}
}

// Put delivers v, blocking while the buffer is full and no getter waits.
func (m *Mailbox) Put(p *Proc, v interface{}) {
	if len(m.getters) > 0 {
		g := m.getters[0]
		m.getters = m.getters[1:]
		m.items = append(m.items, v)
		m.eng.scheduleResume(0, g)
		return
	}
	if len(m.items) < m.cap {
		m.items = append(m.items, v)
		return
	}
	m.putters = append(m.putters, mboxPut{p, v})
	p.block("put", m.name)
}

// Get receives the oldest value, blocking while the mailbox is empty.
func (m *Mailbox) Get(p *Proc) interface{} {
	if len(m.items) == 0 {
		m.promotePutter() // rendezvous with a blocked sender, if any
	}
	for len(m.items) == 0 {
		m.getters = append(m.getters, p)
		p.block("get", m.name)
	}
	v := m.items[0]
	m.items = m.items[1:]
	if len(m.items) < m.cap {
		m.promotePutter() // buffer space freed; admit the next sender
	}
	return v
}

// promotePutter moves the oldest blocked sender's value into the buffer and
// resumes that sender. Callers guarantee there is room (or an active take).
func (m *Mailbox) promotePutter() {
	if len(m.putters) == 0 {
		return
	}
	pt := m.putters[0]
	m.putters = m.putters[1:]
	m.items = append(m.items, pt.v)
	m.eng.scheduleResume(0, pt.p)
}
