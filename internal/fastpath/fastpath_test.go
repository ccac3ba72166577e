package fastpath

import (
	"reflect"
	"sync"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/ior"
	"iophases/internal/units"
)

// iorCases is the parameter corpus: every axis of the Table III surface an
// admissible (np=1, independent) run can exercise, with sizes crossing the
// server-request, stripe-unit and flush-chunk boundaries.
func iorCases() []ior.Params {
	return []ior.Params{
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 256 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 8 * units.MiB, Transfer: units.MiB, Segments: 1, DoWrite: true, Fsync: true},
		{NP: 1, BlockSize: 2 * units.MiB, Transfer: 64 * units.KiB, Segments: 3, DoWrite: true, DoRead: true},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 128 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true, RandomOrder: true, Seed: 7},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 512 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true, Interleaved: true},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 256 * units.KiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true, FilePerProc: true},
		{NP: 1, BlockSize: 16 * units.MiB, Transfer: 4 * units.MiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true, ReorderRead: true},
		{NP: 1, BlockSize: 1 * units.MiB, Transfer: 16 * units.KiB, Segments: 1, DoWrite: false, DoRead: true},
		{NP: 1, BlockSize: 3 * units.MiB, Transfer: 96 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true},
	}
}

// TestRunIORMatchesDES cross-validates the analytic result against the full
// DES for every built-in configuration and every corpus case: when the fast
// path answers, the Result must be bit-identical.
func TestRunIORMatchesDES(t *testing.T) {
	for _, spec := range cluster.Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			hits := 0
			for _, p := range iorCases() {
				fast, ok := RunIOR(spec, p)
				if !ok {
					continue
				}
				hits++
				des := ior.Run(spec, p)
				if !reflect.DeepEqual(fast, des) {
					t.Errorf("%s %+v:\n fast %+v\n  des %+v", spec.Name, p, fast, des)
				}
			}
			admissible := fsimStripeCount(spec) == 1
			if admissible && hits == 0 {
				t.Errorf("%s: no fast-path hits on an admissible configuration", spec.Name)
			}
			if !admissible && hits != 0 {
				t.Errorf("%s: %d hits on an inadmissible configuration", spec.Name, hits)
			}
		})
	}
}

func fsimStripeCount(spec cluster.Spec) int {
	n := spec.Storage.IONodes
	sc := spec.Storage.FileStripeCount
	if sc <= 0 || sc > n {
		return n
	}
	return sc
}

// TestRunIORAllocationFloor pins the walker reuse: once the pool holds a
// walker, an admissible RunIOR allocates only what its ChunkOrder call
// does (the order slice, plus the shuffle's generator for RandomOrder),
// on a RAID5 target with a write cache (configA) and on a bare disk.
func TestRunIORAllocationFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	bare := cluster.ConfigA()
	bare.Storage.RAID, bare.Storage.Cache, bare.Storage.DisksPerNode = nil, nil, 1
	for _, spec := range []cluster.Spec{cluster.ConfigA(), bare} {
		for _, p := range iorCases() {
			if _, ok := RunIOR(spec, p); !ok {
				continue
			}
			order := testing.AllocsPerRun(50, func() { p.ChunkOrder(0) })
			allocs := testing.AllocsPerRun(50, func() { RunIOR(spec, p) })
			if allocs > order {
				t.Errorf("%s %+v: %v allocs per run, want at most ChunkOrder's %v", spec.Name, p, allocs, order)
			}
		}
	}
}

// TestConcurrentRunsMatchSerial prices the corpus from several goroutines
// at once, so pooled walkers pass between goroutines and storage shapes,
// and requires every result to equal the serial one.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	type run struct {
		spec cluster.Spec
		p    ior.Params
		want ior.Result
	}
	var runs []run
	for _, spec := range cluster.Presets() {
		for _, p := range iorCases() {
			if res, ok := RunIOR(spec, p); ok {
				runs = append(runs, run{spec, p, res})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range runs {
				r := runs[(i*(g+1)+g)%len(runs)]
				if got, ok := RunIOR(r.spec, r.p); !ok || !reflect.DeepEqual(got, r.want) {
					t.Errorf("goroutine %d, %s %+v: got %+v ok=%v, want %+v", g, r.spec.Name, r.p, got, ok, r.want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReadAfterUndroppedWriteBails pins the guard bit on configA's write
// cache. A read of an extent written since the last cache drop bails: the
// DES may serve it from the cache's recently-written index, or race the
// flusher for the device. After a drop the same read is priced from the
// device.
func TestReadAfterUndroppedWriteBails(t *testing.T) {
	for _, drop := range []bool{false, true} {
		spec := cluster.ConfigA()
		w := getWalker(&spec)
		w.open()
		w.writeExtent(0, units.MiB)
		if w.bailed() {
			t.Fatal("a write into an empty cache bailed")
		}
		if drop {
			w.dropCaches()
		}
		before := w.now
		w.readExtent(0, units.MiB)
		switch {
		case !drop && !w.bailed():
			t.Error("a read of an extent written since the last drop was priced")
		case drop && w.bailed():
			t.Error("a read after a cache drop bailed")
		case drop && w.now <= before:
			t.Errorf("a read after a cache drop cost %v", w.now-before)
		}
		walkers.Put(w)
	}
}
