// Package des implements a deterministic discrete-event simulation engine
// with coroutine-style processes. It is the substrate on which the simulated
// cluster, network, storage and MPI runtime execute.
//
// Determinism is the central design constraint: the engine hands control to
// exactly one process at a time, event ties break on a monotone sequence
// number, and no wall-clock or map-iteration order ever influences results.
// Running the same program twice produces bit-identical traces.
//
// Each Engine is single-threaded: all of its events and processes execute
// on one goroutine chain with explicit handoff, the goroutine that holds
// control running the event loop until it hands control on. Independent
// engines share nothing, so distinct simulations may run concurrently on
// separate goroutines (see internal/sweep) without locks and without
// perturbing each other's event order.
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
	pool     []*Proc // recycled procs: goroutine + channel ready for reuse
	running  bool
	switches uint64 // goroutine switches: control handed to another process's goroutine
	// done carries control back to Run once the queue drains on a process
	// goroutine. Made on Run's first handoff, so NewEngine stays inlinable
	// and an engine that never runs a process allocates no channel.
	done chan struct{}

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
// fn runs on whichever goroutine holds control when its event comes up:
// Run's, or that of the process whose blocking or return reached it. Only
// event order decides when fn runs; the goroutine matters only to a panic
// in fn, which may surface on a process goroutine as one in a process
// body does.
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
// The goroutine that holds control calls it: Run to start a simulation, a
// process when it blocks or finishes (see Proc.handoff).
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
// indistinguishable from completion.
func (e *Engine) Run() {
	if e.running {
		panic("des: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	if p := e.dispatch(); p != nil {
		// From here the processes pass control among themselves; the
		// one that finds the queue empty hands it back on done.
		if e.done == nil {
			e.done = make(chan struct{})
		}
		e.switches++
		p.wake <- struct{}{}
		<-e.done
	}
	e.drainPool()
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

// drainPool terminates the recycled proc goroutines once the simulation has
// run out of events. Without this, every finished engine would leave its
// free-listed goroutines parked on their wake channels forever — a leak
// that compounds across the thousands of engines a sweep creates.
func (e *Engine) drainPool() {
	for i, p := range e.pool {
		p.fn = nil // loop() interprets a wake without a function as exit
		p.wake <- struct{}{}
		e.pool[i] = nil
	}
	e.pool = e.pool[:0]
}
