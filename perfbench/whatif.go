package main

import (
	"fmt"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
	"iophases/internal/predict"
	"iophases/internal/simcache"
	"iophases/internal/units"
)

// whatif-fast: one op resets the replay cache and explores one np=1
// MADBench2 model over the contention-free StandardVariants of configA,
// configC and Finisterrae (configB stripes every file, so none of its
// variants qualifies). Every replay is priced in closed form: the fast
// path, simcache fingerprinting and sweep dispatch do the work and the DES
// does none.
type whatifFast struct {
	model    *core.Model
	variants []predict.Variant
	distinct int64  // distinct replays one exploration simulates
	ref      string // ranking digest from setup
}

// fastVariants keeps the variants on which every replay of m is admissible
// to the fast path.
func fastVariants(m *core.Model) []predict.Variant {
	var out []predict.Variant
	for _, base := range []cluster.Spec{cluster.ConfigA(), cluster.ConfigC(), cluster.Finisterrae()} {
	variants:
		for _, v := range predict.StandardVariants(base) {
			for _, pm := range m.Phases {
				if fastpath.DecisionTag(v.Spec, ior.FromReplay(pm.Replay(m.AccessType))) != "v1:ok" {
					continue variants
				}
			}
			v.Name = v.Spec.Name // unique across bases
			out = append(out, v)
		}
	}
	return out
}

// checkRanking verifies the totals ascend and returns the ranking digest.
func checkRanking(res []predict.ExploreResult) (string, error) {
	type row struct {
		Variant string
		Total   units.Duration
	}
	rows := make([]row, len(res))
	for i, r := range res {
		if i > 0 && r.Total < res[i-1].Total {
			return "", fmt.Errorf("rank %d (%s) below rank %d", i+1, r.Variant.Name, i)
		}
		rows[i] = row{r.Variant.Name, r.Total}
	}
	return digestOf(rows), nil
}

func newWhatifFast(seed int64, dir string, st *setupStats) (workload, error) {
	simcache.Reset()
	set, err := traceCorpusApp(whatifApp(seed), st)
	if err != nil {
		return nil, err
	}
	w := &whatifFast{model: core.Build(set)}
	w.variants = fastVariants(w.model)
	if len(w.variants) == 0 {
		return nil, fmt.Errorf("no contention-free variant")
	}
	seen := map[string]bool{}
	for _, v := range w.variants {
		for _, pm := range w.model.Phases {
			seen[simcache.Fingerprint(v.Spec, ior.FromReplay(pm.Replay(w.model.AccessType)))] = true
		}
	}
	w.distinct = int64(len(seen))
	// The reference ranking comes from the DES, so every op also checks
	// that the closed form still matches the simulation it replaces.
	res, err := predict.ExploreOpts(w.model, w.variants, predict.EstimateOptions{FastPath: fastpath.ModeOff})
	if err != nil {
		return nil, err
	}
	if w.ref, err = checkRanking(res); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return w, nil
}

func (w *whatifFast) op(i int) error {
	hits0, bails0 := fastpath.Stats()
	simcache.Reset()
	res, err := predict.Explore(w.model, w.variants)
	if err != nil {
		return err
	}
	return w.check(res, hits0, bails0)
}

// check compares the ranking with the DES reference and applies the guards: no
// replay bails to the DES, and the fast path answers every distinct one.
func (w *whatifFast) check(res []predict.ExploreResult, hits0, bails0 int64) error {
	got, err := checkRanking(res)
	if err != nil {
		return err
	}
	if got != w.ref {
		return fmt.Errorf("ranking digest %s, setup had %s", got[:12], w.ref[:12])
	}
	hits1, bails1 := fastpath.Stats()
	if bails1 != bails0 {
		return fmt.Errorf("guard: %d replays bailed to the DES", bails1-bails0)
	}
	if hits1-hits0 != w.distinct {
		return fmt.Errorf("guard: fast path answered %d replays, want %d", hits1-hits0, w.distinct)
	}
	return nil
}

func (w *whatifFast) tracedOps() int { return 40 }

func (w *whatifFast) tracedOp(i int, t *tracing) error {
	before := readCounters()
	opID := t.rec.begin("op whatif-fast", -1, i)
	t.rec.timed("simcache.Reset", opID, i, simcache.Reset)
	var res []predict.ExploreResult
	var err error
	t.rec.timed("predict.Explore", opID, i, func() { res, err = predict.Explore(w.model, w.variants) })
	t.rec.end(opID)
	if err != nil {
		return err
	}
	after := readCounters()
	t.countOp(before, after, t.rec.get(opID).dur(), true)
	if err := w.check(res, before.snap.Counters["fastpath/hits"], before.snap.Counters["fastpath/bailouts"]); err != nil {
		return err
	}
	specs := make([]cluster.Spec, len(w.variants))
	for j, v := range w.variants {
		specs[j] = v.Spec
	}
	return t.predictProbes(w.model, specs, i)
}

func (w *whatifFast) input(int) string { return w.model.App }

func (w *whatifFast) close() {}
