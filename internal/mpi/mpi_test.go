package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"iophases/internal/des"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

func newTestWorld(np int) (*des.Engine, *World) {
	eng := des.NewEngine()
	fab := netsim.NewFabric(eng, "net", netsim.LinkParams{Bandwidth: units.MBps(100), Latency: 10 * units.Microsecond})
	nodes := make([]string, np)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i/2) // two ranks per node
	}
	for i := 0; i < (np+1)/2; i++ {
		fab.AddEndpoint(fmt.Sprintf("n%d", i))
	}
	return eng, NewWorld(eng, fab, nodes)
}

func TestRunExecutesAllRanks(t *testing.T) {
	_, w := newTestWorld(4)
	var ids []int
	w.Run(func(r *Rank) {
		r.Compute(units.Duration(r.ID()) * units.Millisecond)
		ids = append(ids, r.ID())
	})
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 3}) {
		t.Fatalf("completion order %v", ids)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	_, w := newTestWorld(4)
	var releases []units.Duration
	w.Run(func(r *Rank) {
		r.Compute(units.Duration(r.ID()+1) * units.Second)
		r.Barrier()
		releases = append(releases, r.Now())
	})
	for _, at := range releases {
		if at < 4*units.Second {
			t.Fatalf("released at %v before last arrival", at)
		}
	}
}

func TestTicksCountMPIEvents(t *testing.T) {
	_, w := newTestWorld(2)
	var ticks []int64
	w.Run(func(r *Rank) {
		r.Barrier()             // tick 1
		r.Compute(units.Second) // no tick
		r.Barrier()             // tick 2
		r.Exchange(1024)        // tick 3
		r.Barrier()             // tick 4
		ticks = append(ticks, r.Tick())
	})
	for _, tk := range ticks {
		if tk != 4 {
			t.Fatalf("tick = %d, want 4 (compute must not tick)", tk)
		}
	}
}

func TestSyncDoesNotTick(t *testing.T) {
	_, w := newTestWorld(3)
	w.Run(func(r *Rank) {
		r.Sync()
		if r.Tick() != 0 {
			t.Errorf("Sync consumed a tick: %d", r.Tick())
		}
	})
}

func TestCollectivesCostScalesWithLatency(t *testing.T) {
	run := func(lat units.Duration) units.Duration {
		eng, w := newTestWorld(8)
		w.SetLatency(lat)
		w.Run(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Barrier()
			}
		})
		return eng.Now()
	}
	slow, fast := run(units.Millisecond), run(10*units.Microsecond)
	if slow <= fast {
		t.Fatalf("barrier cost: slow-lat %v <= fast-lat %v", slow, fast)
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() units.Duration {
		eng, w := newTestWorld(6)
		w.Run(func(r *Rank) {
			for k := 0; k < 5; k++ {
				r.Compute(units.Duration(1+(r.ID()*3+k)%4) * units.Millisecond)
				r.Exchange(int64(1+k) * units.MiB)
				r.Barrier()
			}
		})
		return eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestNodeMapping(t *testing.T) {
	_, w := newTestWorld(4)
	if w.NodeOf(0) != "n0" || w.NodeOf(1) != "n0" || w.NodeOf(2) != "n1" {
		t.Fatalf("node mapping wrong: %s %s %s", w.NodeOf(0), w.NodeOf(1), w.NodeOf(2))
	}
}
