//go:build go1.23

package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"

	"iophases/internal/units"
)

// Proc is a simulated process: a coroutine (iter.Pull) that runs in
// virtual time, cooperatively interleaved by the engine. At most one
// coroutine of an engine executes at any instant. Control passes like a
// baton: a process that blocks runs the event loop itself and, unless its
// own resume is next, yields the next process due to Run, which resumes it
// (see handoff). Every transfer is a coroutine switch, so Procs may freely
// share state without data races.
type Proc struct {
	eng  *Engine
	name string
	// resume runs the coroutine until it yields the next process due;
	// yield, set inside the coroutine, is its half of that switch; stop
	// finishes a pooled coroutine that the idle list has no room for.
	resume func() (*Proc, bool)
	yield  func(*Proc) bool
	stop   func()
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

// idle holds the suspended coroutines of finished runs for any engine in
// the process to reuse, so a new engine does not pay iter.Pull's
// allocations per coroutine. It keeps at most idleCap; Run finishes the
// rest (releasePool).
var idle struct {
	sync.Mutex
	procs []*Proc
}

// idleCap bounds the idle list; idle's mutex guards it. It is a variable
// only so that tests can exceed the bound with small engines.
var idleCap = 1024

// Spawn starts fn as a new simulated process. The process begins at the
// current virtual time (via a zero-delay event) and runs until fn returns.
//
// Procs are recycled: a terminated process returns its coroutine to the
// engine's pool, and Run moves the pool to the idle list, so the
// simulators' per-request helper processes (see Fork) cost no allocation
// and no coroutine creation in steady state. No caller may retain the
// returned *Proc past fn's return — the identity is reused.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.pool); n > 0 {
		p = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		p = takeIdle()
	}
	p.eng, p.name, p.fn = e, name, fn
	e.live[p] = struct{}{}
	e.scheduleResume(0, p)
	return p
}

// takeIdle returns a suspended coroutine from the idle list, or a new one.
func takeIdle() *Proc {
	idle.Lock()
	if n := len(idle.procs); n > 0 {
		p := idle.procs[n-1]
		idle.procs[n-1] = nil
		idle.procs = idle.procs[:n-1]
		idle.Unlock()
		return p
	}
	idle.Unlock()
	p := new(Proc)
	p.resume, p.stop = iter.Pull(p.loop)
	return p
}

// releasePool moves the engine's pooled coroutines to the idle list, up to
// its cap, and finishes the others. A pooled coroutine is suspended in
// handoff with no function, so stop makes its loop return. A proc joins
// the list with only its coroutine, so an idle one keeps no finished
// engine reachable.
func (e *Engine) releasePool() {
	idle.Lock()
	n := min(len(e.pool), idleCap-len(idle.procs))
	for _, p := range e.pool[:n] {
		*p = Proc{resume: p.resume, yield: p.yield, stop: p.stop}
	}
	idle.procs = append(idle.procs, e.pool[:n]...)
	idle.Unlock()
	for _, p := range e.pool[n:] {
		p.stop()
	}
	clear(e.pool)
	e.pool = e.pool[:0]
}

// loop is the coroutine body: run one process function per life, then
// join the engine's pool and pass control on. handoff returns when the
// coroutine is resumed again, for a new life (Spawn reused it, possibly
// for another engine) or with no function, from stop.
func (p *Proc) loop(yield func(*Proc) bool) {
	p.yield = yield
	defer p.repanic()
	for p.fn != nil {
		fn := p.fn
		p.fn = nil
		fn(p)
		e := p.eng
		delete(e.live, p) // this coroutine holds control; safe to touch
		e.pool = append(e.pool, p)
		p.handoff()
	}
}

// Panic is the value Run raises when a process body, or a callback run on
// a process's coroutine, panics. iter.Pull re-raises the panic on Run's
// caller with only that caller's frames, so Stack keeps the coroutine's,
// taken before they unwind. Error's text begins with Value's.
type Panic struct {
	Value any
	Proc  string // the process whose coroutine panicked
	Stack []byte
}

func (e *Panic) Error() string {
	return fmt.Sprintf("%v\n\ndes: panic in process %s:\n%s", e.Value, e.Proc, e.Stack)
}

// Unwrap returns Value when it is an error.
func (e *Panic) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// repanic re-raises a panic leaving p's coroutine as a *Panic. Deferred in
// loop, it runs on top of the panicking frames, so the stack it takes
// still holds them.
func (p *Proc) repanic() {
	if v := recover(); v != nil {
		panic(&Panic{Value: v, Proc: p.name, Stack: debug.Stack()})
	}
}

// handoff passes control on from p, which has just blocked or finished,
// and returns when p holds it again. p's coroutine runs the event loop
// (Engine.dispatch) itself. If the next process due is p, p keeps running
// with no switch. Otherwise p yields that process, or nil once the queue
// drains, to Run, whose loop resumes it: two coroutine switches and no
// scheduler wakeup. A p left suspended when the queue drains is pooled, or
// blocked in a deadlock and never resumed.
func (p *Proc) handoff() {
	next := p.eng.dispatch()
	if next != p {
		p.yield(next)
	}
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
// coroutine switch.
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
