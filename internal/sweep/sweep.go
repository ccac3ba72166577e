// Package sweep is the deterministic worker pool behind every what-if
// exploration and experiment fan-out. The simulations it runs are
// embarrassingly parallel — each cluster replay owns a private des.Engine
// and shares no mutable state — so the pool's only job is to spread
// independent simulations over OS threads while keeping results
// order-preserving: Map returns results indexed by input position, never by
// completion order, so a run at -j 8 is byte-identical to -j 1.
//
// Concurrency defaults to GOMAXPROCS and is overridable process-wide
// (SetConcurrency, the CLIs' -j flag) or per call (MapN).
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iophases/internal/obs"
)

var defaultConcurrency atomic.Int64

// Concurrency reports the pool width used when a call does not pass an
// explicit one: the last SetConcurrency value, or GOMAXPROCS.
func Concurrency() int {
	if n := defaultConcurrency.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetConcurrency fixes the process-wide default pool width. n <= 0 restores
// the GOMAXPROCS default. It returns the effective width.
func SetConcurrency(n int) int {
	if n <= 0 {
		defaultConcurrency.Store(0)
	} else {
		defaultConcurrency.Store(int64(n))
	}
	return Concurrency()
}

// Map applies fn to every item on a pool of Concurrency() workers and
// returns the results in input order. fn must be safe to call concurrently
// with itself; each call receives the item's index. With one worker (or one
// item) it degenerates to a plain serial loop on the calling goroutine, so
// -j 1 has zero scheduling overhead and identical stack traces to the
// pre-pool code.
func Map[T, R any](items []T, fn func(i int, item T) R) []R {
	return MapN(Concurrency(), items, fn)
}

// MapN is Map with an explicit worker count.
//
// Telemetry is first-class: task counts, cumulative busy time, the pool's
// high-water width, and the high-water entry backlog (sweep/queue_max —
// items beyond what the pool width can start immediately) land on the
// always-on obs default registry, so a resident server's /metrics sees
// pool pressure without any telemetry flag. Busy time is each worker's
// running time, from its start until it finds no item left, summed over
// the workers. A worker reads the clock twice and keeps its tallies in
// its own slot; the caller adds them to sweep/tasks and sweep/busy_ns
// once, before MapN returns, so the shared counters take two atomic adds
// per call and none per task. Timeline spans (one per task, per worker
// track) remain gated on an active recorder, since they format labels
// and grow the span ring.
//
// A panic in fn stops its worker and is raised again on the caller once
// every worker has stopped, so a recover around MapN (iod's safeCompute)
// catches it as it would a serial loop's. Of several, the lowest index's
// is raised: items are claimed in index order, so every lower index ran,
// and that is the panic the serial loop would have raised.
func MapN[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out
	}
	if workers > len(items) {
		workers = len(items)
	}
	reg := obs.Default()
	cTasks := reg.Counter("sweep/tasks")
	cBusy := reg.Counter("sweep/busy_ns")
	reg.Gauge("sweep/workers_max").SetMax(int64(workers))
	if backlog := len(items) - workers; backlog > 0 {
		reg.Gauge("sweep/queue_max").SetMax(int64(backlog))
	}
	tl := obs.Timeline()
	run := func(tr *obs.Track, i int, item T) R {
		if tr == nil {
			return fn(i, item)
		}
		s0 := tl.WallNow()
		r := fn(i, item)
		tr.Span(fmt.Sprintf("task %d", i), s0, tl.WallNow())
		return r
	}
	if workers <= 1 {
		t0 := time.Now()
		var tr *obs.Track
		if tl != nil {
			tr = tl.Track("sweep pool", "serial")
		}
		for i, item := range items {
			out[i] = run(tr, i, item)
		}
		cTasks.Add(int64(len(items)))
		cBusy.Add(int64(time.Since(t0)))
		return out
	}
	// tally is one worker's task count and running time, and the index
	// and value of the panic that stopped it (val nil if none), written by
	// that worker before wg.Done and read by the caller after wg.Wait.
	type tally struct {
		tasks, busy int64
		at          int
		val         any
	}
	tallies := make([]tally, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			var tr *obs.Track
			if tl != nil {
				tr = tl.Track("sweep pool", fmt.Sprintf("worker %d", w))
			}
			n, i := 0, 0
			defer func() {
				tallies[w] = tally{int64(n), int64(time.Since(t0)), i, recover()}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= len(items) {
					break
				}
				out[i] = run(tr, i, items[i])
				n++
			}
		}(w)
	}
	wg.Wait()
	var sum tally
	for _, t := range tallies {
		sum.tasks += t.tasks
		sum.busy += t.busy
		if t.val != nil && (sum.val == nil || t.at < sum.at) {
			sum.at, sum.val = t.at, t.val
		}
	}
	cTasks.Add(sum.tasks)
	cBusy.Add(sum.busy)
	if sum.val != nil {
		panic(sum.val)
	}
	return out
}
