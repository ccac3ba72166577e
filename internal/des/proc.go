package des

import (
	"fmt"

	"iophases/internal/units"
)

// Proc is a simulated process: a goroutine that runs in virtual time,
// cooperatively interleaved by the engine. At most one goroutine of an
// engine executes at any instant. Control passes like a baton: a process
// that blocks runs the event loop itself and wakes the next process due
// over that process's wake channel (see handoff), so every transfer is a
// channel rendezvous and Procs may freely share state without data races.
type Proc struct {
	eng  *Engine
	name string
	wake chan struct{}
	// reason and on say what the process last blocked on, for deadlock
	// reports: a verb and the primitive's name ("acquire", "disk0"). They
	// are joined only when a report is built, so blocking builds no string.
	reason string
	on     string
	fn     func(p *Proc)
	// Fork state: the body and the count of helpers still running while
	// p waits in Fork; the forking process and its index for a helper.
	forkFn   func(hp *Proc, i int)
	forkLeft int
	parent   *Proc
	index    int
}

// Spawn starts fn as a new simulated process. The process begins at the
// current virtual time (via a zero-delay event) and runs until fn returns.
//
// Procs are recycled: a terminated process returns its goroutine and
// channel to the engine's free list, so the simulators' per-request
// helper processes (see Fork) cost no allocation and no goroutine
// creation in steady state. No caller may retain the returned *Proc past
// fn's return — the identity is reused.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.name = name
		p.fn = fn
	} else {
		p = &Proc{
			eng:  e,
			name: name,
			wake: make(chan struct{}),
			fn:   fn,
		}
		go p.loop()
	}
	e.live[p] = struct{}{}
	e.scheduleResume(0, p)
	return p
}

// loop is the recycled goroutine body: run one process function per life,
// then join the engine's free list and pass control on. handoff returns
// when the goroutine is resumed again, either for a new life (Spawn reused
// it) or with no function, drainPool's termination signal.
func (p *Proc) loop() {
	<-p.wake
	for p.fn != nil {
		fn := p.fn
		p.fn = nil
		fn(p)
		e := p.eng
		delete(e.live, p) // this goroutine holds control; safe to touch
		e.pool = append(e.pool, p)
		p.handoff()
	}
}

// handoff passes control on from p, which has just blocked or finished,
// and returns when p holds it again. p's own goroutine runs the event loop
// (Engine.dispatch). If the next process due is p itself, p keeps running
// with no goroutine switch. If it is another process, p wakes it directly
// and waits on its own wake channel: one switch per resume. If the queue
// drains, p signals Run and waits, for drainPool if p is pooled, forever
// if the simulation deadlocked with p blocked.
func (p *Proc) handoff() {
	e := p.eng
	next := e.dispatch()
	if next == p {
		return
	}
	if next == nil {
		e.done <- struct{}{}
	} else {
		e.switches++
		next.wake <- struct{}{}
	}
	<-p.wake
}

// block parks the calling process and returns when some event resumes it.
// reason and on are recorded for deadlock diagnostics.
func (p *Proc) block(reason, on string) {
	p.reason, p.on = reason, on
	if m := p.eng.met; m != nil {
		m.parks.Inc()
	}
	p.handoff()
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() units.Duration { return p.eng.now }

// Sleep advances the process by d in virtual time: its resume is queued
// behind every event already due at or before now+d. If that resume is
// the next event, handoff finds it and the process keeps running with no
// goroutine switch.
func (p *Proc) Sleep(d units.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("des: %s sleeping negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.eng.scheduleResume(d, p)
	p.block("sleep", "")
}

// Fork runs fn(hp, i) for every i in [0, n), each on its own helper
// process, and blocks p until the last helper returns. The helpers are
// spawned at the current virtual time in index order; the last to return
// schedules p's zero-delay resume as it returns. Helpers are recycled
// like any process, and their fork state lives in p and in the helpers,
// so beyond fn itself a fork allocates nothing. n == 0 returns at once.
// name names the helpers, and a deadlock report shows p as "fork name".
func (p *Proc) Fork(name string, n int, fn func(hp *Proc, i int)) {
	if n < 0 {
		panic(fmt.Sprintf("des: %s forking %d helpers", p.name, n))
	}
	if n == 0 {
		return
	}
	p.forkFn, p.forkLeft = fn, n
	for i := 0; i < n; i++ {
		hp := p.eng.Spawn(name, runForked)
		hp.parent, hp.index = p, i
	}
	p.block("fork", name)
	p.forkFn = nil
}

// runForked is the body of every Fork helper.
func runForked(hp *Proc) {
	parent := hp.parent
	parent.forkFn(hp, hp.index)
	if parent.forkLeft--; parent.forkLeft == 0 {
		hp.eng.scheduleResume(0, parent)
	}
}

// Park blocks the process until some event calls Engine.Unpark on it.
// It is the extension point for building custom blocking abstractions
// (caches, servers) outside this package. reason is a verb and on names
// the primitive waited on, or is empty; a deadlock report joins them
// ("cache full node0/cache"), so blocking builds no string.
func (p *Proc) Park(reason, on string) { p.block(reason, on) }

// Unpark schedules p to resume at the current virtual time. It must pair
// with a Park; unparking a running process corrupts the control handoff.
func (e *Engine) Unpark(p *Proc) {
	e.scheduleResume(0, p)
}
