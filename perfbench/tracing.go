package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"iophases/internal/obs"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
)

// layerMetric is one per-layer metric of the traced run. The list is the
// per_layer section of BENCHMARK.json; every traced run prints all of
// them, with zeros for layers the workload does not reach.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayerMetrics = []layerMetric{
	{"trace.decode_ms", "ms/op", "lower"},
	{"trace.events_read", "count/op", "lower"},
	{"trace.reread_ratio", "ratio", "lower"},
	{"pattern.mine_ms", "ms/op", "lower"},
	{"pattern.laps", "count/op", "lower"},
	{"stream.chunks_folded", "count/op", "lower"},
	{"stream.boundary_merges", "count/op", "lower"},
	{"phase.identify_ms", "ms/op", "lower"},
	{"phase.phases", "count/op", "lower"},
	{"stream.rescans", "count/op", "lower"},
	{"core.build_ms", "ms/op", "lower"},
	{"predict.estimate_ms", "ms/call", "lower"},
	{"predict.self_ms", "ms/call", "lower"},
	{"predict.replays", "count/op", "lower"},
	{"simcache.fingerprint_us", "us/call", "lower"},
	{"simcache.hits", "count/op", "higher"},
	{"simcache.misses", "count/op", "lower"},
	{"simcache.hit_ratio", "ratio", "higher"},
	{"fastpath.run_us", "us/call", "lower"},
	{"fastpath.hits", "count/op", "higher"},
	{"fastpath.bailouts", "count/op", "lower"},
	{"fastpath.hit_ratio", "ratio", "higher"},
	{"cluster.build_us", "us/call", "lower"},
	{"ior.run_ms", "ms/call", "lower"},
	{"des.events_scheduled", "count/op", "lower"},
	{"des.events_elided", "count/op", "higher"},
	{"des.elision_ratio", "ratio", "higher"},
	{"des.proc_parks", "count/op", "lower"},
	{"des.queue_depth_max", "count", "lower"},
	{"des.ns_per_event", "ns", "lower"},
	{"netsim.link_bytes", "B/op", "lower"},
	{"netsim.link_messages", "count/op", "lower"},
	{"netsim.local_bytes", "B/op", "lower"},
	{"disksim.ops", "count/op", "lower"},
	{"disksim.bytes", "B/op", "lower"},
	{"disksim.seeks", "count/op", "lower"},
	{"disksim.queue_wait_vus", "vus/op", "lower"},
	{"fsim.meta_ops", "count/op", "lower"},
	{"fsim.opens", "count/op", "lower"},
	{"sweep.tasks", "count/op", "lower"},
	{"sweep.busy_ms", "ms/op", "lower"},
	{"sweep.utilisation", "ratio", "higher"},
	{"serve.handler_us", "us/req", "lower"},
	{"serve.transport_us", "us/req", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.coalesced", "count/op", "lower"},
	{"serve.queue_wait_us", "us/wait", "lower"},
	{"runner.trace_ms", "ms", "lower"},
	{"trace.encode_ms", "ms", "lower"},
	{"serve.warm_ms", "ms", "lower"},
	{"go.alloc_mib_per_op", "MiB/op", "lower"},
	{"go.gc_per_op", "count/op", "lower"},
	{"go.gc_pause_ms", "ms/op", "lower"},
	{"tracing.overhead_ms", "ms/op", "lower"},
}

// tracedGuards are the traced run's checks that each workload still
// measures what it names; a mismatch fails the run.
var tracedGuards = map[string][]struct {
	metric string
	want   float64
}{
	"select-cold": {{"fastpath.hits", 0}},
	"whatif-fast": {{"des.events_scheduled", 0}, {"fastpath.bailouts", 0}},
	"extract-bin": {{"des.events_scheduled", 0}},
	"serve-hit":   {{"des.events_scheduled", 0}, {"serve.hit_ratio", 1}},
}

// tracing accumulates the traced segment: spans, the program's own obs
// counters as deltas over each op, and per-call durations of the
// stand-alone layer probes.
type tracing struct {
	rec   *recorder
	ops   int
	opDur []time.Duration
	// counts sums per-op quantities by metric name.
	counts map[string]float64
	// calls holds per-call durations by metric name.
	calls map[string][]time.Duration
}

// tracedLoop runs the workload's fixed traced segment with the program's
// run telemetry on, so the simulated layers' counters are live.
func tracedLoop(w workload) (*tracing, error) {
	t := &tracing{rec: newRecorder(), counts: map[string]float64{}, calls: map[string][]time.Duration{}}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Default().Gauge("des/queue_depth_max").Set(0)
	for i := 0; i < w.tracedOps(); i++ {
		if err := w.tracedOp(i, t); err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		t.ops++
	}
	t.counts["des.queue_depth_max"] = float64(obs.Default().Gauge("des/queue_depth_max").Value())
	return t, nil
}

// counters is a snapshot of the program's obs counters and the simcache
// traffic.
type counters struct {
	snap                obs.Snapshot
	cacheHit, cacheMiss uint64
}

func readCounters() counters {
	h, m, _ := simcache.Stats()
	return counters{snap: obs.Default().Snapshot(), cacheHit: h, cacheMiss: m}
}

// sumCounters adds every counter whose name has the prefix and suffix.
func sumCounters(s obs.Snapshot, prefix, suffix string) int64 {
	var n int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// countOp adds the counter deltas of one op, taken around the op alone
// (probes excluded). cacheReset marks ops that begin with simcache.Reset,
// which zeroes the simcache counters: their after-values are the deltas.
func (t *tracing) countOp(before, after counters, wall time.Duration, cacheReset bool) {
	t.opDur = append(t.opDur, wall)
	d := func(prefix, suffix string) float64 {
		return float64(sumCounters(after.snap, prefix, suffix) - sumCounters(before.snap, prefix, suffix))
	}
	hd := func(name string) (count, sum float64) {
		a, b := after.snap.Histograms[name], before.snap.Histograms[name]
		return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
	}
	c := t.counts
	c["stream.chunks_folded"] += d("stream/chunks_folded", "")
	c["stream.boundary_merges"] += d("stream/boundary_merges", "")
	c["stream.rescans"] += d("stream/rescans", "")
	hits, misses := float64(after.cacheHit)-float64(before.cacheHit), float64(after.cacheMiss)-float64(before.cacheMiss)
	if cacheReset {
		hits, misses = float64(after.cacheHit), float64(after.cacheMiss)
	}
	c["simcache.hits"] += hits
	c["simcache.misses"] += misses
	c["fastpath.hits"] += d("fastpath/hits", "")
	c["fastpath.bailouts"] += d("fastpath/bailouts", "")
	c["des.events_scheduled"] += d("des/events_scheduled", "")
	c["des.events_elided"] += d("des/events_elided", "")
	c["des.proc_parks"] += d("des/proc_parks", "")
	c["netsim.link_bytes"] += d("netsim/link/", "/bytes")
	c["netsim.link_messages"] += d("netsim/link/", "/messages")
	c["netsim.local_bytes"] += d("netsim/fabric/", "/local_bytes")
	c["disksim.ops"] += d("disksim/read_ops", "") + d("disksim/write_ops", "")
	c["disksim.bytes"] += d("disksim/read_bytes", "") + d("disksim/write_bytes", "")
	c["disksim.seeks"] += d("disksim/seeks", "")
	_, qw := hd("disksim/queue_wait_us")
	c["disksim.queue_wait_vus"] += qw
	c["fsim.meta_ops"] += d("fsim/meta_ops", "")
	c["fsim.opens"] += d("fsim/opens", "")
	c["sweep.tasks"] += d("sweep/tasks", "")
	c["sweep.busy_ns"] += d("sweep/busy_ns", "")
	c["serve.cache_hits"] += d("serve/cache_hits", "")
	c["serve.coalesced"] += d("serve/coalesced", "")
	n, sum := hd("serve/queue_wait_us")
	c["serve.queue_waits"] += n
	c["serve.queue_wait_sum"] += sum
}

// call records one stand-alone probe call of a layer.
func (t *tracing) call(metric string, d time.Duration) {
	t.calls[metric] = append(t.calls[metric], d)
}

// meanCall is the mean probe duration of a metric in unit.
func (t *tracing) meanCall(metric string, unit time.Duration) float64 {
	ds := t.calls[metric]
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

func (t *tracing) totalCalls(metric string) time.Duration {
	var sum time.Duration
	for _, d := range t.calls[metric] {
		sum += d
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer turns the traced segment into the per-layer metrics. lp is the
// untraced loop of the same run (the tracing-overhead baseline); m0/m1
// bracket it for the Go runtime counters.
func (t *tracing) perLayer(lp loop, m0, m1 *runtime.MemStats, st *setupStats) map[string]metric {
	ops := float64(t.ops)
	c := t.counts
	v := map[string]float64{}
	for _, name := range []string{
		"trace.events_read", "pattern.laps", "stream.chunks_folded", "stream.boundary_merges",
		"phase.phases", "stream.rescans", "simcache.hits", "simcache.misses", "fastpath.hits",
		"fastpath.bailouts", "des.events_scheduled", "des.events_elided", "des.proc_parks",
		"netsim.link_bytes", "netsim.link_messages", "netsim.local_bytes", "disksim.ops",
		"disksim.bytes", "disksim.seeks", "disksim.queue_wait_vus", "fsim.meta_ops", "fsim.opens",
		"sweep.tasks", "serve.coalesced",
	} {
		v[name] = c[name] / ops
	}
	v["predict.replays"] = c["simcache.misses"] / ops
	v["trace.decode_ms"] = t.totalCalls("trace.decode").Seconds() * 1000 / ops
	v["trace.reread_ratio"] = ratio(c["trace.events_read"], c["trace.events_in_trace"])
	v["pattern.mine_ms"] = t.totalCalls("pattern.mine").Seconds() * 1000 / ops
	v["phase.identify_ms"] = t.totalCalls("phase.identify").Seconds() * 1000 / ops
	v["core.build_ms"] = t.totalCalls("core.build").Seconds() * 1000 / ops
	v["predict.estimate_ms"] = t.meanCall("predict.estimate", time.Millisecond)
	v["predict.self_ms"] = t.meanCall("predict.self", time.Millisecond)
	v["simcache.fingerprint_us"] = t.meanCall("simcache.fingerprint", time.Microsecond)
	v["simcache.hit_ratio"] = ratio(c["simcache.hits"], c["simcache.hits"]+c["simcache.misses"])
	v["fastpath.run_us"] = t.meanCall("fastpath.run", time.Microsecond)
	v["fastpath.hit_ratio"] = ratio(c["fastpath.hits"], c["fastpath.hits"]+c["fastpath.bailouts"])
	v["cluster.build_us"] = t.meanCall("cluster.build", time.Microsecond)
	v["ior.run_ms"] = t.meanCall("ior.run", time.Millisecond)
	v["des.elision_ratio"] = ratio(c["des.events_elided"], c["des.events_elided"]+c["des.events_scheduled"])
	v["des.queue_depth_max"] = c["des.queue_depth_max"]
	// The probes re-run exactly the replays the ops simulated, so their
	// RunOn time over the ops' scheduled events is the cost per event.
	v["des.ns_per_event"] = ratio(float64(t.totalCalls("ior.run")), c["des.events_scheduled"])
	var wall time.Duration
	for _, d := range t.opDur {
		wall += d
	}
	v["sweep.busy_ms"] = c["sweep.busy_ns"] / 1e6 / ops
	v["sweep.utilisation"] = ratio(c["sweep.busy_ns"], float64(wall)*float64(sweep.Concurrency()))
	v["serve.handler_us"] = t.meanCall("serve.handler", time.Microsecond)
	v["serve.transport_us"] = t.meanCall("serve.transport", time.Microsecond)
	v["serve.hit_ratio"] = ratio(c["serve.cache_hits"], c["serve.queries"])
	v["serve.queue_wait_us"] = ratio(c["serve.queue_wait_sum"], c["serve.queue_waits"])
	v["runner.trace_ms"] = st.median("runner.trace")
	v["trace.encode_ms"] = st.median("trace.encode")
	v["serve.warm_ms"] = st.median("serve.warm")
	n := float64(len(lp.lat))
	v["go.alloc_mib_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	v["go.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	v["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n
	v["tracing.overhead_ms"] = median(sortedMillis(t.opDur)) - median(sortedMillis(lp.lat))

	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}

// setupStats records, per setup, the time spent in each setup stage.
type setupStats struct {
	stages []map[string]time.Duration
}

// next starts a new setup's record.
func (s *setupStats) next() { s.stages = append(s.stages, map[string]time.Duration{}) }

// add charges d to stage in the current setup.
func (s *setupStats) add(stage string, d time.Duration) { s.stages[len(s.stages)-1][stage] += d }

// timed runs fn and charges its duration to stage.
func (s *setupStats) timed(stage string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.add(stage, time.Since(t0))
	return err
}

// median is the stage's median over setups, in ms.
func (s *setupStats) median(stage string) float64 {
	var ms []float64
	for _, st := range s.stages {
		ms = append(ms, float64(st[stage])/float64(time.Millisecond))
	}
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	return median(ms)
}
