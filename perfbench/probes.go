package main

import (
	"time"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
	"iophases/internal/pattern"
	"iophases/internal/phase"
	"iophases/internal/predict"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
	"iophases/internal/trace"
)

// The probes time calls into one layer at a time, from outside, on the
// input the traced op just used. They run after the op's span has closed,
// so they never count toward the traced op latency.

// tracedBuild runs core.BuildStream on src inside the op span opID, with
// every trace read recorded as a child span, and records the extraction's
// trace-layer numbers.
func (t *tracing) tracedBuild(src trace.Source, opID, op int, eventsInTrace int64) (*core.Model, span, error) {
	ts := &tracedSource{Source: src, rec: t.rec, op: op}
	id := t.rec.begin("core.BuildStream", opID, op)
	ts.parent = id
	m, err := core.BuildStream(ts)
	t.rec.end(id)
	if err != nil {
		return nil, span{}, err
	}
	build := t.rec.get(id)
	var decode time.Duration
	for _, c := range t.rec.children(id) {
		decode += c.end - c.start
	}
	t.call("trace.decode", decode)
	t.counts["trace.events_read"] += float64(ts.events.Load())
	t.counts["trace.events_in_trace"] += float64(eventsInTrace)
	t.counts["phase.phases"] += float64(len(m.Phases))
	return m, build, nil
}

// extractionProbes times phase.IdentifyStream alone on a fresh source (its
// self time excludes the trace reads it makes), derives core's share as
// BuildStream minus IdentifyStream, and times LAP mining alone over every
// rank of the trace.
func (t *tracing) extractionProbes(open func() (trace.Source, error), build span, op int) error {
	src, err := open()
	if err != nil {
		return err
	}
	ts := &tracedSource{Source: src, rec: t.rec, op: op}
	id := t.rec.begin("phase.IdentifyStream", -1, op)
	ts.parent = id
	_, err = phase.IdentifyStream(ts)
	t.rec.end(id)
	if err != nil {
		return err
	}
	t.call("phase.identify", t.rec.self(id))
	t.call("core.build", build.dur()-t.rec.get(id).dur())

	meta := src.Meta()
	buf := make([]trace.Event, 2048)
	for p := 0; p < meta.NP; p++ {
		r, err := src.OpenRank(p)
		if err != nil {
			return err
		}
		evs, err := trace.ReadAll(r)
		r.Close() // read-only; the read error above is what matters
		if err != nil {
			return err
		}
		var laps []pattern.StreamLAP
		s := t.rec.timed("pattern.Miner", -1, op, func() {
			m := pattern.NewMiner(p)
			for off := 0; off < len(evs); off += len(buf) {
				n := copy(buf, evs[off:])
				m.Feed(buf[:n])
			}
			laps = m.Finish()
		})
		t.call("pattern.mine", s.dur())
		t.counts["pattern.laps"] += float64(len(laps))
	}
	return nil
}

// predictProbes estimates the model cold on every spec, one spec at a time
// on a one-worker pool so nothing overlaps, then times each distinct
// replay of that estimate through the layers predict calls: the simcache
// fingerprint, the fast-path attempt and, when it bails, the cluster build
// and the IOR run on the DES. predict's self time is the estimate minus
// those calls.
func (t *tracing) predictProbes(m *core.Model, specs []cluster.Spec, op int) error {
	sweep.SetConcurrency(1)
	defer sweep.SetConcurrency(0)
	for _, spec := range specs {
		simcache.Reset()
		var err error
		est := t.rec.timed("predict.EstimateTime", -1, op, func() { _, err = predict.EstimateTime(m, spec) })
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		var layers time.Duration
		for _, pm := range m.Phases {
			p := ior.FromReplay(pm.Replay(m.AccessType))
			var fp string
			s := t.rec.timed("simcache.Fingerprint", est.ID, op, func() { fp = simcache.Fingerprint(spec, p) })
			t.call("simcache.fingerprint", s.dur())
			layers += s.dur()
			if seen[fp] {
				continue
			}
			seen[fp] = true
			var ok bool
			s = t.rec.timed("fastpath.RunIOR", est.ID, op, func() { _, ok = fastpath.RunIOR(spec, p) })
			t.call("fastpath.run", s.dur())
			layers += s.dur()
			if ok {
				continue
			}
			var c *cluster.Cluster
			s = t.rec.timed("cluster.Build", est.ID, op, func() { c = cluster.Build(spec) })
			t.call("cluster.build", s.dur())
			layers += s.dur()
			s = t.rec.timed("ior.RunOn", est.ID, op, func() { ior.RunOn(c, p) })
			t.call("ior.run", s.dur())
			layers += s.dur()
		}
		t.call("predict.estimate", est.dur())
		t.call("predict.self", est.dur()-layers)
	}
	return nil
}
