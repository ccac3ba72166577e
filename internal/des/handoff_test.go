package des

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"iophases/internal/units"
)

// TestHandoffLoneProcSelfResumes pins the handoff count of the baton
// protocol: a lone process whose sleeps all go through the queue finds its
// own resume when it runs the event loop, so the only goroutine switch is
// Run starting it. A protocol that routed every resume through Run's
// goroutine would count 101.
func TestHandoffLoneProcSelfResumes(t *testing.T) {
	e := NewEngine()
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(units.Microsecond)
		}
	})
	e.Run()
	if e.switches != 1 {
		t.Fatalf("switches = %d, want 1", e.switches)
	}
	if e.Now() != 100*units.Microsecond {
		t.Fatalf("clock at %v, want 100µs", e.Now())
	}
}

// TestHandoffCallbackSpawnsAndUnparks drives the monitor pattern: a chain
// of Schedule callbacks, which run on whichever goroutine holds control,
// spawns processes and unparks a parked one. At 4ms the callback runs on
// the goroutine of w2, which has just finished, and its Spawn reuses that
// very goroutine, so the new process starts without a switch. Every process
// must run to completion, and Run must return only after the queue drains,
// including a callback due long after the last process ends.
func TestHandoffCallbackSpawnsAndUnparks(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
	waiter := e.Spawn("waiter", func(p *Proc) {
		p.Park("tick", "")
		note(p)
	})
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		n := ticks
		if n == 3 {
			e.Unpark(waiter)
		}
		e.Spawn(fmt.Sprintf("w%d", n), func(p *Proc) {
			p.Sleep(units.Duration(n) * units.Millisecond)
			note(p)
		})
		if n < 5 {
			e.Schedule(units.Millisecond, tick)
		}
	}
	e.Schedule(units.Millisecond, tick)
	late := false
	e.Schedule(units.Second, func() { late = true })
	e.Run()

	var want []string
	for _, w := range []struct {
		name string
		ms   units.Duration
	}{{"w1", 2}, {"waiter", 3}, {"w2", 4}, {"w3", 6}, {"w4", 8}, {"w5", 10}} {
		want = append(want, fmt.Sprintf("%s@%v", w.name, w.ms*units.Millisecond))
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("completions = %v, want %v", log, want)
	}
	if !late || e.Now() != units.Second || len(e.queue) != 0 {
		t.Fatalf("Run returned at %v with late=%v and %d events queued", e.Now(), late, len(e.queue))
	}
	if len(e.live) != 0 || len(e.pool) != 0 {
		t.Fatalf("%d procs live and %d pooled after Run", len(e.live), len(e.pool))
	}
}

// TestHandoffConcurrentEnginesMatchSerial runs sixteen mixed workloads at
// once, each engine on its own goroutine, and requires the trace of a
// serial run from every one: engines share no state, so their handoffs
// cannot interleave. Under -race this also checks every transfer orders
// the engine state it hands over.
func TestHandoffConcurrentEnginesMatchSerial(t *testing.T) {
	type result struct {
		trace []string
		end   units.Duration
	}
	const n = 16
	var serial, parallel [n]result
	for i := range serial {
		serial[i].trace, serial[i].end = mixTrace(uint64(i + 1))
	}
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i].trace, parallel[i].end = mixTrace(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("seed %d: concurrent run %v differs from serial %v", i+1, parallel[i], serial[i])
		}
	}
}

// TestHandoffLeavesNoGoroutines runs a thousand sixteen-process engines
// back to back. The goroutine that finds the queue empty hands control
// back to Run from inside the free list; were it left out of drainPool,
// every engine would leak a goroutine and the count would climb by about
// a thousand.
func TestHandoffLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e := NewEngine()
		b := NewBarrier(e, "b", 16)
		for j := 0; j < 16; j++ {
			d := units.Duration(1+j%4) * units.Microsecond
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				b.Wait(p)
			})
		}
		e.Run()
	}
	// Drained goroutines exit once scheduled; give them the chance.
	const slack = 32
	for i := 0; i < 1000 && runtime.NumGoroutine() > base+slack; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base+slack {
		t.Fatalf("%d goroutines after 1000 engines, started with %d", n, base)
	}
}
