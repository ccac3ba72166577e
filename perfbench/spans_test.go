package main

import (
	"testing"

	"iophases/internal/phase"
	"iophases/internal/sweep"
	"iophases/internal/trace"
)

// TestTracedSourceUnderSweepWorkers drives the span recorder from the
// sweep pool's workers, as the traced run does, so -race sees the sharing.
func TestTracedSourceUnderSweepWorkers(t *testing.T) {
	sweep.SetConcurrency(4)
	defer sweep.SetConcurrency(0)
	sp := trace.SynthSpec{NP: 8, EventsPerRank: 3000, RoundLen: 128}
	src, err := trace.Synth(sp)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	ts := &tracedSource{Source: src, rec: rec}
	ts.parent = rec.begin("phase.IdentifyStream", -1, 0)
	if _, err := phase.IdentifyStream(ts); err != nil {
		t.Fatal(err)
	}
	rec.end(ts.parent)
	if got, min := ts.events.Load(), int64(sp.NP)*sp.EventsPerRank; got < min {
		t.Errorf("read %d events, the trace holds %d", got, min)
	}
	children := rec.children(ts.parent)
	if len(children) < 2*sp.NP {
		t.Errorf("%d child spans, want an OpenRank and a Read per rank at least", len(children))
	}
	if self := rec.self(ts.parent); self < 0 || self > rec.get(ts.parent).dur() {
		t.Errorf("self time %v outside [0, %v]", self, rec.get(ts.parent).dur())
	}
}
