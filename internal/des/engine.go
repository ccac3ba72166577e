// Package des implements a deterministic discrete-event simulation engine
// with coroutine-style processes. It is the substrate on which the simulated
// cluster, network, storage and MPI runtime execute.
//
// Determinism is the central design constraint: the engine hands control to
// exactly one process at a time, event ties break on a monotone sequence
// number, and no wall-clock or map-iteration order ever influences results.
// Running the same program twice produces bit-identical traces.
//
// Each Engine is single-threaded: its processes are coroutines that Run
// resumes one at a time, and whichever of Run and a process holds control
// runs the event loop until it hands control on. A panic in a process body
// or in a callback comes out of Run on its caller's goroutine. Independent
// engines share no simulation state (only a mutex-guarded list of idle
// coroutines), so distinct simulations may run concurrently on separate
// goroutines (see internal/sweep) without perturbing each other's event
// order.
package des

import (
	"fmt"
	"math"
	"sort"

	"iophases/internal/obs"
	"iophases/internal/units"
)

// event is a scheduled callback. Events with equal timestamps fire in
// scheduling order (seq), which makes the simulation fully reproducible.
// Events are stored by value in the queue — the hot path allocates nothing
// per event. When proc is non-nil the event resumes that process directly
// instead of calling fn, which keeps Sleep/Unpark/Spawn closure-free.
type event struct {
	at   units.Duration
	seq  uint64
	fn   func()
	proc *Proc
}

// before reports heap order: earliest time first, scheduling order on ties.
func (ev event) before(other event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is a value-based binary min-heap. It replaces the seed's
// container/heap implementation, whose interface{} boxing cost one heap
// allocation per scheduled event; storing events inline cuts the engine's
// steady-state allocs/op to slice growth only (see BenchmarkEngine).
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release the closure for GC
	h = h[:n]
	*q = h
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h[right].before(h[left]) {
			child = right
		}
		if !h[child].before(h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// initialQueueCap pre-sizes the event queue so steady-state simulations
// (hundreds of in-flight disk, link and process events) never re-grow it.
const initialQueueCap = 256

// Engine is a virtual-time event scheduler. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now      units.Duration
	queue    eventQueue
	seq      uint64
	live     map[*Proc]struct{}
	pool     []*Proc // finished procs: suspended coroutines ready for reuse
	running  bool
	switches uint64 // coroutine resumes: control handed to a process that is not already running

	// Run-telemetry handles, nil unless obs was enabled when the engine
	// was built. Every method on the nil struct is a no-op branch, so the
	// disabled state adds no allocations to the hot path (pinned by the
	// allocs/op gate on BenchmarkEngineSwitchHeavy).
	met *engineMetrics

	// faultCtx is an opaque slot for a per-engine fault injector
	// (internal/faults). Typed any to keep des free of upward imports;
	// devices fetch it once at construction, so the no-faults service
	// path pays a single nil check.
	faultCtx any
}

// SetFaultCtx installs the engine's fault-injection context. Called once
// by cluster.Build before any device is constructed.
func (e *Engine) SetFaultCtx(v any) { e.faultCtx = v }

// FaultCtx reports the fault-injection context, nil when none is attached.
func (e *Engine) FaultCtx() any { return e.faultCtx }

// engineMetrics bundles the engine's obs handles behind one pointer so
// NewEngine stays within the inlining budget: an inlined NewEngine lets
// escape analysis stack-allocate short-lived engines (the per-op engine
// in BenchmarkEngineSchedule), which the allocs/op gate relies on.
type engineMetrics struct {
	scheduled *obs.Counter
	parks     *obs.Counter
	queueMax  *obs.Gauge
}

func newEngineMetrics() *engineMetrics {
	h := obs.Hot()
	if h == nil {
		return nil
	}
	return &engineMetrics{
		scheduled: h.Counter("des/events_scheduled"),
		parks:     h.Counter("des/proc_parks"),
		queueMax:  h.Gauge("des/queue_depth_max"),
	}
}

// noteScheduled counts one queued event and tracks the depth high-water
// mark. No-op on the nil (telemetry disabled) receiver.
func (m *engineMetrics) noteScheduled(depth int) {
	if m == nil {
		return
	}
	m.scheduled.Inc()
	m.queueMax.SetMax(int64(depth))
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	return &Engine{
		queue: make(eventQueue, 0, initialQueueCap),
		live:  make(map[*Proc]struct{}),
		met:   newEngineMetrics(),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() units.Duration { return e.now }

// Schedule arranges for fn to run after delay. A negative delay, or one
// that carries the clock past int64 nanoseconds, panics: causality
// violations and wrapped clocks are programming errors.
//
// fn runs wherever control is when its event comes up: in Run, or in the
// coroutine of the process whose blocking or return reached it. Only
// event order decides when fn runs, and a panic in fn comes out of Run
// either way, as one in a process body does.
func (e *Engine) Schedule(delay units.Duration, fn func()) {
	e.seq++
	e.queue.push(event{at: e.after(delay), seq: e.seq, fn: fn})
	e.met.noteScheduled(len(e.queue))
}

// scheduleResume arranges for p to be resumed after delay without
// allocating a closure — the Sleep/Unpark/Spawn fast path.
func (e *Engine) scheduleResume(delay units.Duration, p *Proc) {
	e.seq++
	e.queue.push(event{at: e.after(delay), seq: e.seq, proc: p})
	e.met.noteScheduled(len(e.queue))
}

// after returns the virtual time delay from now, panicking on a negative
// delay or on one that would wrap the clock past int64 nanoseconds.
func (e *Engine) after(delay units.Duration) units.Duration {
	if delay < 0 || delay > math.MaxInt64-e.now {
		e.badDelay(delay)
	}
	return e.now + delay
}

// badDelay panics, naming the refused delay and the current time. It is
// kept out of after so that after inlines.
func (e *Engine) badDelay(delay units.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	panic(fmt.Sprintf("des: delay %v at %v runs past the end of virtual time", delay, e.now))
}

// dispatch pops events in queue order, running callbacks inline, and
// returns the first process due to resume, or nil once the queue drains.
// Whoever holds control calls it: Run, or a process when it blocks or
// finishes (see Proc.handoff).
func (e *Engine) dispatch() *Proc {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		e.now = ev.at
		if ev.proc != nil {
			return ev.proc
		}
		ev.fn()
	}
	return nil
}

// Run executes events until the queue drains. If processes are still alive
// when the queue empties, the simulation has deadlocked and Run panics with
// the blocked processes' names and states — silent hangs would otherwise be
// indistinguishable from completion. A panic in a process body or in a
// callback comes out of Run; the engine is not usable after it, and its
// other processes stay suspended.
func (e *Engine) Run() {
	if e.running {
		panic("des: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	// A process yields back here only when the next process due is
	// another one, or nil once the queue has drained (Proc.handoff).
	for p := e.dispatch(); p != nil; p, _ = p.resume() {
		e.switches++
	}
	e.releasePool()
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			state := p.reason
			if p.on != "" {
				state += " " + p.on
			}
			names = append(names, fmt.Sprintf("%s[%s]", p.name, state))
		}
		sort.Strings(names)
		// The virtual timestamp plus the engine's switch counter make
		// hang reports self-locating: "at 2.4s after 10M switches"
		// narrows a deadlock far faster than proc names alone.
		panic(fmt.Sprintf("des: deadlock at %v (switches=%d), %d blocked processes: %v",
			e.now, e.switches, len(names), names))
	}
}
