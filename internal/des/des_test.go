package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iophases/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(20*units.Millisecond, func() { got = append(got, "c") })
	e.Schedule(10*units.Millisecond, func() { got = append(got, "a") })
	e.Schedule(10*units.Millisecond, func() { got = append(got, "b") })
	e.Run()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event order = %v, want %v", got, want)
	}
	if e.Now() != 20*units.Millisecond {
		t.Fatalf("final time = %v, want 20ms", e.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(units.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: got %d", i, v)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

// A delay that fits in int64 but carries the clock past it must panic
// with the delay and the current time, not wrap virtual time negative.
func TestDelayPastEndOfTimePanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(units.Second, func() {})
	e.Run()
	e.Schedule(math.MaxInt64-units.Second, func() {}) // ends exactly at the last instant
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"past the end of virtual time", fmt.Sprint(units.Duration(math.MaxInt64)), fmt.Sprint("at ", units.Second)} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q lacks %q", msg, want)
			}
		}
	}()
	e.Schedule(math.MaxInt64, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake units.Duration
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * units.Second)
		wake = p.Now()
	})
	e.Run()
	if wake != 3*units.Second {
		t.Fatalf("woke at %v, want 3s", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, spec := range []struct {
		name  string
		sleep units.Duration
	}{{"slow", 30 * units.Millisecond}, {"fast", 10 * units.Millisecond}, {"mid", 20 * units.Millisecond}} {
		spec := spec
		e.Spawn(spec.name, func(p *Proc) {
			p.Sleep(spec.sleep)
			order = append(order, spec.name)
		})
	}
	e.Run()
	want := []string{"fast", "mid", "slow"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock not detected")
		}
		msg, ok := r.(string)
		if !ok || msg == "" {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Park("never", "") })
	e.Run()
}

// TestProcPanicReachesRunCaller: a panic in a process body comes out of
// Run on its caller's goroutine as a *Panic holding the body's value, so a
// recover around Run gets it while the other process is still parked
// mid-run.
func TestProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at units.Duration }
	e := NewEngine()
	e.Spawn("slow", func(p *Proc) { p.Sleep(units.Second) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(units.Millisecond)
		panic(boom{p.Now()})
	})
	got := recoverRun(e)
	pp, ok := got.(*Panic)
	if want := (boom{units.Millisecond}); !ok || pp.Value != want || pp.Proc != "bad" {
		t.Fatalf("recovered %#v, want a *Panic of process bad holding %#v", got, want)
	}
}

// recoverRun runs e and returns what a panic out of Run carried.
func recoverRun(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

var errFire = errors.New("disk on fire")

// explode panics below a process body, in a callback run on the
// process's coroutine, so only the captured stack can name it.
func explode() { panic(errFire) }

// TestProcPanicKeepsItsStack: the value Run raises keeps the frames of the
// coroutine that panicked, which the re-raise on Run's caller loses: the
// stack names the panicking function, the text starts with the original
// panic's, and an error value stays reachable through errors.Is.
func TestProcPanicKeepsItsStack(t *testing.T) {
	e := NewEngine()
	e.Spawn("victim", func(p *Proc) {
		e.Schedule(units.Millisecond, explode)
		p.Sleep(units.Second) // dispatches the callback on this coroutine
	})
	pp, ok := recoverRun(e).(*Panic)
	if !ok {
		t.Fatal("Run did not raise a *Panic")
	}
	if !strings.Contains(string(pp.Stack), "des.explode(") {
		t.Errorf("captured stack does not name des.explode:\n%s", pp.Stack)
	}
	if msg := pp.Error(); !strings.HasPrefix(msg, errFire.Error()) || !strings.Contains(msg, "process victim") {
		t.Errorf("panic text %q does not start with the original's and name the process", msg)
	}
	if !errors.Is(pp, errFire) {
		t.Error("the original error is not reachable through Unwrap")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p, 1)
			order = append(order, name)
			p.Sleep(units.Second)
			r.Release(1)
		})
	}
	e.Run()
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("admission order = %v, want %v", order, want)
	}
	if e.Now() != 5*units.Second {
		t.Fatalf("serialized holds should end at 5s, got %v", e.Now())
	}
}

func TestResourceNoBarging(t *testing.T) {
	// A big request at the head of the queue must not be overtaken by a
	// small one that arrives later.
	e := NewEngine()
	r := NewResource(e, "srv", 4)
	var order []string
	e.Spawn("hog", func(p *Proc) {
		r.Acquire(p, 4)
		p.Sleep(units.Second)
		r.Release(4)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(units.Millisecond)
		r.Acquire(p, 3)
		order = append(order, "big")
		r.Release(3)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * units.Millisecond)
		r.Acquire(p, 1)
		order = append(order, "small")
		r.Release(1)
	})
	e.Run()
	want := []string{"big", "small"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v (no barging)", order, want)
	}
}

func TestResourceConcurrentCapacity(t *testing.T) {
	// Capacity 2 admits two holders at once: four 1s holds finish at 2s.
	e := NewEngine()
	r := NewResource(e, "dual", 2)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(units.Second)
			r.Release(1)
		})
	}
	e.Run()
	if e.Now() != 2*units.Second {
		t.Fatalf("finished at %v, want 2s", e.Now())
	}
}

func TestBarrierReleasesAtLastArrival(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, "b", 3)
	var releases []units.Duration
	for i := 0; i < 3; i++ {
		d := units.Duration(i+1) * units.Second
		e.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			releases = append(releases, p.Now())
		})
	}
	e.Run()
	if len(releases) != 3 {
		t.Fatalf("got %d releases", len(releases))
	}
	for _, at := range releases {
		if at != 3*units.Second {
			t.Fatalf("release at %v, want 3s (last arrival)", at)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, "b", 2)
	count := 0
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Sleep(units.Millisecond)
				b.Wait(p)
				count++
			}
		})
	}
	e.Run()
	if count != 20 {
		t.Fatalf("count = %d, want 20", count)
	}
}

// TestDeterminism re-runs an irregular workload and requires identical
// completion timestamps — the core reproducibility guarantee.
func TestDeterminism(t *testing.T) {
	run := func() []units.Duration {
		e := NewEngine()
		r := NewResource(e, "r", 2)
		b := NewBarrier(e, "b", 4)
		var stamps []units.Duration
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Sleep(units.Duration(1+(i*7+k*3)%5) * units.Millisecond)
					r.Acquire(p, 1)
					p.Sleep(units.Duration(1+(i+k)%3) * units.Millisecond)
					r.Release(1)
					b.Wait(p)
				}
				stamps = append(stamps, p.Now())
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// Property: for any set of sleep durations, processes complete in sorted
// duration order and the engine clock ends at the maximum.
func TestQuickSleepOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		e := NewEngine()
		var finished []units.Duration
		for i, r := range raw {
			d := units.Duration(r) * units.Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, p.Now())
			})
		}
		e.Run()
		var max units.Duration
		for i := 1; i < len(finished); i++ {
			if finished[i] < finished[i-1] {
				return false
			}
		}
		for _, d := range finished {
			if d > max {
				max = d
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
