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
