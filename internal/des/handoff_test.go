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
// own resume when it runs the event loop, so the only coroutine resume is
// Run starting it. A protocol that yielded to Run at every block would
// count 101.
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
// of Schedule callbacks, which run wherever control is, spawns processes
// and unparks a parked one. At 4ms the callback runs in the coroutine of
// w2, which has just finished, and its Spawn reuses that very coroutine,
// so the new process starts without a switch. Every process must run to
// completion, and Run must return only after the queue drains, including
// a callback due long after the last process ends.
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
// serial run from every one: engines share no simulation state, so their
// handoffs cannot interleave. Under -race this also checks every transfer
// orders the engine state it hands over, including for coroutines that
// the idle list passes from one goroutine's engine to another's.
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

// runWide runs an engine of n processes spawned before Run, so each takes
// its own coroutine and the engine's pool ends the run holding all n.
func runWide(n int) {
	e := NewEngine()
	for j := 0; j < n; j++ {
		e.Spawn("p", func(*Proc) {})
	}
	e.Run()
}

// idleLen reports how many coroutines the idle list holds.
func idleLen() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.procs)
}

// lowerIdleCap sets the idle list's cap to n for the rest of the test and
// finishes the coroutines the list holds past it, so that small engines
// can exceed the cap. A thousand engines wider than the real cap took a
// -race test binary past 600 MB.
func lowerIdleCap(t *testing.T, n int) {
	idle.Lock()
	old := idleCap
	idleCap = n
	var extra []*Proc
	if len(idle.procs) > n {
		extra = append(extra, idle.procs[n:]...)
		clear(idle.procs[n:])
		idle.procs = idle.procs[:n]
	}
	idle.Unlock()
	for _, p := range extra {
		p.stop()
	}
	t.Cleanup(func() {
		idle.Lock()
		idleCap = old
		idle.Unlock()
	})
}

// TestHandoffIdleListStaysUnderCap runs engines narrower and wider than
// the idle list's cap, one at a time and then four at once whose
// processes together outnumber it, and requires the list to hold at most
// the cap after every Run, and exactly the cap once more coroutines than
// that have finished.
func TestHandoffIdleListStaysUnderCap(t *testing.T) {
	const limit = 64
	lowerIdleCap(t, limit)
	for _, n := range []int{1, limit / 2, limit, 2 * limit, 3} {
		runWide(n)
		if got := idleLen(); got > limit {
			t.Fatalf("after a %d-process engine the idle list holds %d, cap %d", n, got, limit)
		}
	}
	if got := idleLen(); got != limit {
		t.Fatalf("idle list holds %d after a %d-process engine, want %d", got, 2*limit, limit)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWide(limit)
		}()
	}
	wg.Wait()
	if got := idleLen(); got != limit {
		t.Fatalf("idle list holds %d after four concurrent engines, want %d", got, limit)
	}
}

// TestHandoffIdleListBoundsGoroutines runs a thousand engines back to
// back, each with one process more than the idle list holds. Run keeps
// the cap's worth of coroutines for the next engine and finishes the
// other one; had it dropped that one suspended, the goroutine count would
// end about a thousand above the baseline plus the cap plus the slack.
// (TestHandoffIdleListStaysUnderCap catches a list that keeps too many.)
// The surplus is one because under the race detector a coroutine that is
// created and finished costs memory its end does not give back: two a
// engine grew a -race run by about 55 MB per thousand engines.
func TestHandoffIdleListBoundsGoroutines(t *testing.T) {
	const limit, slack = 64, 1
	lowerIdleCap(t, limit)
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		runWide(limit + 1)
	}
	// stop ends a coroutine's goroutine before it returns, so the count
	// needs no settling time.
	if n := runtime.NumGoroutine(); n > base+limit+slack {
		t.Fatalf("%d goroutines after 1000 engines, started with %d (idle cap %d)", n, base, limit)
	}
}
