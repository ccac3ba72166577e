package des

import (
	"testing"

	"iophases/internal/units"
)

// BenchmarkEngine drives the event queue through a schedule/fire churn that
// mirrors the simulator's steady state: a bounded set of pending events with
// every fired event scheduling a successor. The allocs/op metric is the
// per-event heap cost of the queue itself (plus one closure per event).
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		const width = 64 // concurrent pending events
		remaining := 10_000
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				e.Schedule(units.Microsecond, tick)
			}
		}
		for j := 0; j < width; j++ {
			e.Schedule(units.Duration(j), tick)
		}
		e.Run()
	}
}

// BenchmarkEngineSchedule isolates Schedule+pop cost without callback work:
// pre-fill the queue, then drain it.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 4096; j++ {
			e.Schedule(units.Duration(j%97), func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineProcs measures the process-handoff path: many Procs
// sleeping in lockstep, the pattern mpi.World produces. Lockstep sleeps
// tie at every instant, so nearly every resume hands control to another
// process through Run — this is the coroutine switch cost, on purpose.
// After the first op the coroutines come from the idle list.
func BenchmarkEngineProcs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 16; j++ {
			e.Spawn("p", func(p *Proc) {
				for k := 0; k < 200; k++ {
					p.Sleep(units.Microsecond)
				}
			})
		}
		e.Run()
	}
}

// switchHeavy is the uncontended counterpart: a proc burning through
// short sleeps with no event due before each wake target — the shape of an
// uncontended disk transfer chain or inter-phase busy-work. A far-future
// sentinel keeps the queue non-empty, so every sleep is a push and a pop
// against a live heap, after which the lone process finds its own resume
// and keeps running with no coroutine switch (Proc.handoff).
func switchHeavy(e *Engine) {
	e.Schedule(3600*units.Second, func() {})
	e.Spawn("p", func(p *Proc) {
		for k := 0; k < 3200; k++ {
			p.Sleep(units.Microsecond)
		}
	})
	e.Run()
}

// BenchmarkEngineSwitchHeavy measures a sleep's queue round trip with no
// coroutine switch: the cost of Sleep when the sleeper's own resume is the
// next event.
func BenchmarkEngineSwitchHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		switchHeavy(NewEngine())
	}
}
