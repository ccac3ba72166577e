package des

import (
	"fmt"

	"iophases/internal/units"
)

// Proc is a simulated process: a goroutine that runs in virtual time,
// cooperatively interleaved by the engine. At most one Proc executes at any
// instant; control transfers through the wake/park channel pair, so Procs
// may freely share state without data races.
type Proc struct {
	eng   *Engine
	name  string
	wake  chan struct{}
	park  chan struct{}
	state string // human-readable blocking reason for deadlock reports
	fn    func(p *Proc)
}

// Spawn starts fn as a new simulated process. The process begins at the
// current virtual time (via a zero-delay event) and runs until fn returns.
//
// Procs are recycled: a terminated process returns its goroutine and
// channels to the engine's free list, so the simulators' per-request
// helper processes (RAID member chunks, parallel-FS stripe fan-out) cost
// no allocation and no goroutine creation in steady state. No caller may
// retain the returned *Proc past fn's return — the identity is reused.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		p.name = name
		p.state = "starting"
		p.fn = fn
	} else {
		p = &Proc{
			eng:   e,
			name:  name,
			wake:  make(chan struct{}),
			park:  make(chan struct{}),
			state: "starting",
			fn:    fn,
		}
		go p.loop()
	}
	e.live[p] = struct{}{}
	e.scheduleResume(0, p)
	return p
}

// loop is the recycled goroutine body: run one process function per wake,
// park back into the engine's free list between lives, exit when woken
// with no function (drainPool's termination signal).
func (p *Proc) loop() {
	for {
		<-p.wake
		fn := p.fn
		if fn == nil {
			return
		}
		p.fn = nil
		fn(p)
		e := p.eng
		delete(e.live, p) // engine is parked in resume(); safe to touch
		e.pool = append(e.pool, p)
		p.park <- struct{}{}
	}
}

// resume transfers control to p and blocks until p parks again (either by
// blocking on a primitive or by terminating). Only event callbacks call
// resume, so process wake-ups inherit the event queue's deterministic order.
func (e *Engine) resume(p *Proc) {
	e.switches++
	p.wake <- struct{}{}
	<-p.park
}

// block parks the calling process, handing control back to the engine, and
// returns when some event resumes it. reason is recorded for deadlock
// diagnostics.
func (p *Proc) block(reason string) {
	p.state = reason
	if m := p.eng.met; m != nil {
		m.parks.Inc()
	}
	p.park <- struct{}{}
	<-p.wake
	p.state = "running"
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine reports the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() units.Duration { return p.eng.now }

// Sleep advances the process by d in virtual time.
//
// Fast path (switch elision): when no queued event fires at or before
// now+d, the scheduled resume would be the next event popped — so the
// park/resume rendezvous is pure overhead and Sleep instead advances the
// engine clock inline and keeps running on the same goroutine. Any tie
// (an event at exactly now+d has a smaller seq than a resume scheduled
// now, so it must run first) falls back to the park path, which keeps
// event order — and therefore every simulation result — bit-identical.
func (p *Proc) Sleep(d units.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("des: %s sleeping negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	e := p.eng
	if target := e.now + d; e.canElide(target) {
		e.now = target
		e.noteElision()
		return
	}
	e.scheduleResume(d, p)
	p.block("sleep")
}

// Park blocks the process until some event calls Engine.Unpark on it.
// It is the extension point for building custom blocking abstractions
// (caches, servers) outside this package; reason appears in deadlock
// reports.
func (p *Proc) Park(reason string) { p.block(reason) }

// Unpark schedules p to resume at the current virtual time. It must pair
// with a Park; unparking a running process corrupts the control handoff.
func (e *Engine) Unpark(p *Proc) {
	e.scheduleResume(0, p)
}

// Yield reschedules the process at the current time behind already-queued
// events, letting same-time events run first. With no same-time event
// queued there is nothing to yield to and the call returns inline (the
// rescheduled resume would fire immediately anyway).
func (p *Proc) Yield() {
	e := p.eng
	if e.canElide(e.now) {
		e.noteElision()
		return
	}
	e.scheduleResume(0, p)
	p.block("yield")
}
