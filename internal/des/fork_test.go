package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iophases/internal/obs"
	"iophases/internal/units"
)

func TestFork(t *testing.T) {
	t.Run("staggered", func(t *testing.T) {
		e := NewEngine()
		finish := make([]units.Duration, 3)
		var done units.Duration
		e.Spawn("parent", func(p *Proc) {
			p.Fork("w", 3, func(hp *Proc, i int) {
				hp.Sleep(units.Duration(3-i) * units.Second)
				finish[i] = hp.Now()
			})
			done = p.Now()
		})
		e.Run()
		if want := []units.Duration{3 * units.Second, 2 * units.Second, units.Second}; !reflect.DeepEqual(finish, want) {
			t.Fatalf("helpers finished at %v, want %v", finish, want)
		}
		if done != 3*units.Second {
			t.Fatalf("fork released at %v, want 3s", done)
		}
	})

	t.Run("empty", func(t *testing.T) {
		e := NewEngine()
		var seq uint64
		calls := 0
		e.Spawn("parent", func(p *Proc) {
			seq = e.seq
			p.Fork("none", 0, func(*Proc, int) { calls++ })
			if e.seq != seq {
				t.Errorf("an empty fork scheduled %d events", e.seq-seq)
			}
		})
		e.Run()
		if calls != 0 || e.Now() != 0 || e.switches != 1 {
			t.Fatalf("empty fork: %d calls, clock %v, %d switches; want 0, 0, 1", calls, e.Now(), e.switches)
		}
	})

	t.Run("nested", func(t *testing.T) {
		e := NewEngine()
		var log []string
		note := func(p *Proc, what string) {
			log = append(log, fmt.Sprintf("%s %s@%v", p.Name(), what, p.Now()))
		}
		e.Spawn("parent", func(p *Proc) {
			p.Fork("outer", 2, func(hp *Proc, i int) {
				if i == 1 {
					hp.Sleep(units.Millisecond)
					note(hp, "leaf")
					return
				}
				hp.Fork("inner", 2, func(ip *Proc, j int) {
					ip.Sleep(units.Duration(2+j) * units.Millisecond)
					note(ip, fmt.Sprint(j))
				})
				note(hp, "joined")
			})
			note(p, "joined")
		})
		e.Run()
		want := []string{
			"outer leaf@0.001000s",
			"inner 0@0.002000s",
			"inner 1@0.003000s",
			"outer joined@0.003000s",
			"parent joined@0.003000s",
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("log = %v, want %v", log, want)
		}
	})

	t.Run("deadlock", func(t *testing.T) {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"parent[fork kids]", "kids[stuck]"} {
				if !strings.Contains(msg, want) {
					t.Errorf("deadlock report %q missing %q", msg, want)
				}
			}
		}()
		e := NewEngine()
		e.Spawn("parent", func(p *Proc) {
			p.Fork("kids", 2, func(hp *Proc, i int) {
				if i == 1 {
					hp.Park("stuck", "")
				}
			})
		})
		e.Run()
	})
}

// waitGroup is the counter the simulators fanned out with before Fork,
// kept as the oracle of TestForkMatchesSpawnWait.
type waitGroup struct {
	eng     *Engine
	count   int
	waiters []*Proc
}

func (w *waitGroup) done() {
	w.count--
	if w.count == 0 {
		for _, p := range w.waiters {
			w.eng.scheduleResume(0, p)
		}
		w.waiters = w.waiters[:0]
	}
}

func (w *waitGroup) wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.block("waitgroup", "")
}

// spawnWait is the hand-rolled fan-out Fork replaced: one Spawn per
// helper, whose closure calls Done at its end, then Wait.
func spawnWait(p *Proc, name string, n int, fn func(hp *Proc, i int)) {
	wg := &waitGroup{eng: p.eng, count: n}
	for i := 0; i < n; i++ {
		p.eng.Spawn(name, func(hp *Proc) {
			fn(hp, i)
			wg.done()
		})
	}
	wg.wait(p)
}

// forkTree is a random process: it runs its steps in order. A step
// sleeps, holds the shared resource for a while, or forks one helper per
// kid (none for a zero-width fork) and waits for them.
type forkTree struct {
	steps []forkStep
}

type forkStep struct {
	sleep units.Duration
	hold  bool
	fork  bool
	kids  []*forkTree
}

func randomForkTree(rng *rand.Rand, depth int) *forkTree {
	t := &forkTree{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		st := forkStep{sleep: units.Duration(rng.Intn(4)) * units.Microsecond}
		switch k := rng.Intn(4); {
		case k == 0 && depth > 0:
			st.fork = true
			for w := rng.Intn(4); w > 0; w-- {
				st.kids = append(st.kids, randomForkTree(rng, depth-1))
			}
		case k == 1:
			st.hold = true
		}
		t.steps = append(t.steps, st)
	}
	return t
}

// runForkTrees runs one process per root, fanning out through fan, and
// returns every step's (time, process name, tree path, step) line with
// the engine's scheduled-event and park counts.
func runForkTrees(roots []*forkTree, fan func(p *Proc, name string, n int, fn func(hp *Proc, i int))) (trace []string, scheduled, parks int64) {
	e := NewEngine()
	reg := obs.NewRegistry()
	e.met = &engineMetrics{scheduled: reg.Counter("scheduled"), parks: reg.Counter("parks"), queueMax: reg.Gauge("depth")}
	res := NewResource(e, "res", 1)
	var walk func(p *Proc, path string, t *forkTree)
	walk = func(p *Proc, path string, t *forkTree) {
		for s, st := range t.steps {
			switch {
			case st.fork:
				fan(p, path+"/fork", len(st.kids), func(hp *Proc, i int) {
					walk(hp, fmt.Sprintf("%s/%d.%d", path, s, i), st.kids[i])
				})
			case st.hold:
				res.Acquire(p, 1)
				p.Sleep(st.sleep)
				res.Release(1)
			default:
				p.Sleep(st.sleep)
			}
			trace = append(trace, fmt.Sprintf("%d %s %s %d", p.Now(), p.Name(), path, s))
		}
	}
	for i, t := range roots {
		path := fmt.Sprintf("r%d", i)
		e.Spawn(path, func(p *Proc) { walk(p, path, t) })
	}
	e.Run()
	return trace, reg.Counter("scheduled").Value(), reg.Counter("parks").Value()
}

// TestForkMatchesSpawnWait runs random fork trees (nested and zero-width
// forks, sleeps, a contended resource) through Fork and through the
// spawn-plus-wait-group fan-out it replaced: the step trace, the number
// of scheduled events and the number of parks must all agree.
func TestForkMatchesSpawnWait(t *testing.T) {
	fork := func(p *Proc, name string, n int, fn func(hp *Proc, i int)) { p.Fork(name, n, fn) }
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var roots []*forkTree
		for n := 1 + rng.Intn(3); n > 0; n-- {
			roots = append(roots, randomForkTree(rng, 3))
		}
		wantTrace, wantSched, wantParks := runForkTrees(roots, spawnWait)
		gotTrace, gotSched, gotParks := runForkTrees(roots, fork)
		if !reflect.DeepEqual(gotTrace, wantTrace) || gotSched != wantSched || gotParks != wantParks {
			t.Fatalf("seed %d: Fork gave %d events, %d parks, trace %v;\nspawn-wait gave %d events, %d parks, trace %v",
				seed, gotSched, gotParks, gotTrace, wantSched, wantParks, wantTrace)
		}
	}
}
