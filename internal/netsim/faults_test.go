package netsim

import (
	"testing"

	"iophases/internal/des"
	"iophases/internal/faults"
	"iophases/internal/units"
)

// transferUnder times one 100 MiB Send from node0 to node1, started at
// startAt, with sch attached before the fabric is built.
func transferUnder(t *testing.T, sch *faults.Schedule, startAt units.Duration) units.Duration {
	t.Helper()
	eng := des.NewEngine()
	if sch != nil {
		faults.Attach(eng, sch, "test")
	}
	f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
	f.AddEndpoint("node0")
	f.AddEndpoint("node1")
	var took units.Duration
	eng.Spawn("tx", func(p *des.Proc) {
		if startAt > 0 {
			p.Sleep(startAt)
		}
		start := p.Now()
		f.Send(p, "node0", "node1", 100*units.MiB)
		took = p.Now() - start
	})
	eng.Run()
	return took
}

func TestLinkDegradedScalesTransfer(t *testing.T) {
	// Only the sender's uplink matches; the whole pipelined send slows.
	healthy := transferUnder(t, nil, 0)
	slow := transferUnder(t, &faults.Schedule{Name: "d", Effects: []faults.Effect{
		{Kind: faults.LinkDegraded, Match: "node0/up", Factor: 2},
	}}, 0)
	if slow != 2*healthy {
		t.Fatalf("degraded transfer %v, want 2x healthy %v", slow, healthy)
	}
}

func TestLinkFlapDelaysTransferStart(t *testing.T) {
	sch := &faults.Schedule{Name: "f", Effects: []faults.Effect{
		{Kind: faults.LinkFlap, DownMs: 50, UpMs: 950},
	}}
	healthy := transferUnder(t, nil, 0)
	// Starting mid-outage (cycle starts down at t=0): the transfer waits
	// for the remaining 40ms of downtime, then runs at full rate.
	flapped := transferUnder(t, sch, 10*units.Millisecond)
	if want := 40*units.Millisecond + healthy; flapped != want {
		t.Fatalf("flapped transfer %v, want %v", flapped, want)
	}
	// Starting while up: no delay.
	up := transferUnder(t, sch, 100*units.Millisecond)
	if up != healthy {
		t.Fatalf("up-phase transfer %v, want %v", up, healthy)
	}
}

func TestFabricAppliesFactorOnce(t *testing.T) {
	// Uplink and downlink both match the degradation; Send must scale the
	// transfer once, not square the factor.
	run := func(sch *faults.Schedule) units.Duration {
		eng := des.NewEngine()
		if sch != nil {
			faults.Attach(eng, sch, "test")
		}
		f := NewFabric(eng, "net", LinkParams{Bandwidth: units.MBps(100)})
		f.AddEndpoint("a")
		f.AddEndpoint("b")
		var took units.Duration
		eng.Spawn("tx", func(p *des.Proc) {
			start := p.Now()
			f.Send(p, "a", "b", 100*units.MiB)
			took = p.Now() - start
		})
		eng.Run()
		return took
	}
	healthy := run(nil)
	degraded := run(&faults.Schedule{Name: "d", Effects: []faults.Effect{
		{Kind: faults.LinkDegraded, Factor: 2},
	}})
	if degraded != 2*healthy {
		t.Fatalf("fabric send %v, want exactly 2x healthy %v (factor applied once)", degraded, healthy)
	}
}
