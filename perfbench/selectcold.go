package main

import (
	"fmt"
	"path/filepath"

	"iophases"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/predict"
	"iophases/internal/simcache"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// select-cold: one op is the `iomodel -stream` → `iopredict` pipeline of a
// fresh process — reset the replay cache, open a saved text trace, build
// the model by streaming extraction, and select the configuration with the
// least estimated Time_io over every preset that can host it. With np > 1
// the fast path bails, so the cluster build, IOR replay and the simulated
// stack do nearly all the work.
type selectCold struct {
	labels []string
	dirs   []string
	events []int64  // events in each trace
	refs   []string // choice digest of each corpus point, from the in-memory trace
	order  []int
}

// traceCorpusApp runs one application with the tracer on configC, which
// hosts every corpus point.
func traceCorpusApp(a app, st *setupStats) (*trace.Set, error) {
	var set *trace.Set
	err := st.timed("runner.trace", func() error {
		opts := iophases.RunOptions{}
		switch a.Name {
		case "madbench2":
			p := iophases.DefaultMADBench()
			p.RS = a.RS
			p.BusyWork = units.Duration(a.BusyMS) * units.Millisecond
			set = iophases.TraceMADBench2(cluster.ConfigC(), a.NP, p, opts).Set
		case "btio":
			class, ok := iophases.BTIOClassByName(a.Class)
			if !ok {
				return fmt.Errorf("unknown BT-IO class %q", a.Class)
			}
			p := iophases.DefaultBTIO(class)
			p.SolveWork = units.Duration(a.BusyMS) * units.Millisecond
			set = iophases.TraceBTIO(cluster.ConfigC(), a.NP, p, opts).Set
		default:
			return fmt.Errorf("unknown app %q", a.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	set.App = a.label()
	return set, nil
}

func countEvents(set *trace.Set) int64 {
	var n int64
	for _, evs := range set.Events {
		n += int64(len(evs))
	}
	return n
}

// hosts lists the presets with room for np ranks, as iopredict does.
func hosts(np int) []cluster.Spec {
	var out []cluster.Spec
	for _, spec := range cluster.Presets() {
		if np <= spec.MaxProcs() {
			out = append(out, spec)
		}
	}
	return out
}

// checkSelection verifies that best indexes the lowest Eq. 1 total and
// returns the digest of the choice totals.
func checkSelection(best int, choices []predict.Choice) (string, error) {
	if len(choices) == 0 || best < 0 || best >= len(choices) {
		return "", fmt.Errorf("best %d out of %d choices", best, len(choices))
	}
	type row struct {
		Config string
		Total  units.Duration
	}
	rows := make([]row, len(choices))
	for i, ch := range choices {
		if ch.Total < choices[best].Total {
			return "", fmt.Errorf("best %s (%v) is not the lowest: %s has %v",
				choices[best].Config, choices[best].Total, ch.Config, ch.Total)
		}
		rows[i] = row{ch.Config, ch.Total}
	}
	return digestOf(best, rows), nil
}

func newSelectCold(seed int64, dir string, st *setupStats) (workload, error) {
	simcache.Reset()
	apps, order := selectCorpus(seed)
	w := &selectCold{order: order}
	for i, a := range apps {
		set, err := traceCorpusApp(a, st)
		if err != nil {
			return nil, err
		}
		d := filepath.Join(dir, fmt.Sprintf("select%d", i))
		if err := st.timed("trace.encode", func() error { return set.Save(d) }); err != nil {
			return nil, err
		}
		m := core.Build(set)
		best, choices, err := predict.SelectConfig(m, hosts(m.NP))
		if err != nil {
			return nil, err
		}
		ref, err := checkSelection(best, choices)
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", a.label(), err)
		}
		w.labels = append(w.labels, a.label())
		w.dirs = append(w.dirs, d)
		w.events = append(w.events, countEvents(set))
		w.refs = append(w.refs, ref)
	}
	return w, nil
}

func (w *selectCold) point(i int) int { return w.order[i%len(w.order)] }

func (w *selectCold) input(i int) string { return w.labels[w.point(i)] }

func (w *selectCold) op(i int) error {
	k := w.point(i)
	fast0, _ := fastpath.Stats()
	simcache.Reset()
	src, err := trace.OpenDir(w.dirs[k])
	if err != nil {
		return err
	}
	m, err := core.BuildStream(src)
	if err != nil {
		return err
	}
	best, choices, err := predict.SelectConfig(m, hosts(m.NP))
	if err != nil {
		return err
	}
	return w.check(k, best, choices, fast0)
}

// check compares the op's selection with setup's reference and applies the
// guards: every op simulates (simcache misses) and none reaches the fast
// path.
func (w *selectCold) check(k, best int, choices []predict.Choice, fast0 int64) error {
	got, err := checkSelection(best, choices)
	if err != nil {
		return err
	}
	if got != w.refs[k] {
		return fmt.Errorf("point %d: selection digest %s, setup had %s", k, got[:12], w.refs[k][:12])
	}
	if _, misses, _ := simcache.Stats(); misses == 0 {
		return fmt.Errorf("guard: point %d selected without a simcache miss", k)
	}
	if fast1, _ := fastpath.Stats(); fast1 != fast0 {
		return fmt.Errorf("guard: point %d took the fast path %d times", k, fast1-fast0)
	}
	return nil
}

func (w *selectCold) tracedOps() int { return 2 * len(w.order) }

func (w *selectCold) tracedOp(i int, t *tracing) error {
	k := w.point(i)
	before := readCounters()
	opID := t.rec.begin("op select-cold", -1, i)
	t.rec.timed("simcache.Reset", opID, i, simcache.Reset)
	var src trace.Source
	var err error
	t.rec.timed("trace.OpenDir", opID, i, func() { src, err = trace.OpenDir(w.dirs[k]) })
	if err != nil {
		return err
	}
	m, build, err := t.tracedBuild(src, opID, i, w.events[k])
	if err != nil {
		return err
	}
	specs := hosts(m.NP)
	var best int
	var choices []predict.Choice
	t.rec.timed("predict.SelectConfig", opID, i, func() { best, choices, err = predict.SelectConfig(m, specs) })
	t.rec.end(opID)
	if err != nil {
		return err
	}
	after := readCounters()
	t.countOp(before, after, t.rec.get(opID).dur(), true)
	if err := w.check(k, best, choices, before.snap.Counters["fastpath/hits"]); err != nil {
		return err
	}
	open := func() (trace.Source, error) { return trace.OpenDir(w.dirs[k]) }
	if err := t.extractionProbes(open, build, i); err != nil {
		return err
	}
	return t.predictProbes(m, specs, i)
}

func (w *selectCold) close() {}
