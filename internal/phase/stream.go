// The extraction pipeline behind Identify and IdentifyStream. Events flow
// from a trace.Source through per-rank pattern.Miners, chunk by chunk via
// trace.Each; only the mined LAPs and their aggregates survive, so peak
// memory is O(np · window + LAPs) instead of O(events). A resident Set is
// not a second path: trace.Each hands its slices to the same code whole.
//
// The decomposition is two-pass. Pass 1 mines every rank and aggregates
// per-LAP boundary ticks, first start and total busy time — enough to
// build every phase except the family-split case, where one repeated LAP
// becomes one phase per repetition and each phase needs its own
// repetition's tick, start and elapsed time. Pass 2 re-reads only the
// ranks contributing to split groups (the Source contract makes OpenRank
// restartable) and indexes events straight into the known LAP geometry:
// event i of a LAP starting at s with period k is repetition (i−s)/k, slot
// (i−s)%k — no re-mining. Both passes fan out over the sweep pool and are
// consumed serially in rank order, so the result is identical at any -j
// and from any source of the same events (pinned by identifyBoth and
// TestIdentifyStreamFromDir).
package phase

import (
	"slices"

	"iophases/internal/obs"
	"iophases/internal/pattern"
	"iophases/internal/sweep"
	"iophases/internal/trace"
)

// Extraction pipeline telemetry.
var (
	cEvents  = obs.Default().Counter("stream/events")
	cChunks  = obs.Default().Counter("stream/chunks_folded")
	cMerges  = obs.Default().Counter("stream/boundary_merges")
	cRescans = obs.Default().Counter("stream/rescans")
)

// streamRank is one rank's pass-1 result.
type streamRank struct {
	laps   []pattern.StreamLAP
	events int64
	chunks int
	merges int
	err    error
}

// IdentifyStream is Identify over a trace.Source: the same phases, memory
// bounded by np and LAP count. The returned Result's Set carries the source
// metadata but no events.
func IdentifyStream(src trace.Source) (*Result, error) {
	meta := src.Meta()
	set := trace.NewSet(meta.App, meta.Config, meta.NP)
	set.Files = meta.Files
	return identify(src, set)
}

// identify runs both passes over src. set describes src's trace — it is
// the Set src reads, or an event-less one with src's metadata — and
// becomes the Result's Set.
func identify(src trace.Source, set *trace.Set) (*Result, error) {
	perRank := sweep.Map(make([]struct{}, set.NP), func(p int, _ struct{}) streamRank {
		return mineRank(src, p)
	})
	for p := range perRank {
		if err := perRank[p].err; err != nil {
			return nil, err
		}
		cEvents.Add(perRank[p].events)
		cChunks.Add(int64(perRank[p].chunks))
		cMerges.Add(int64(perRank[p].merges))
	}

	g := groupMembers(perRank)
	if err := fillSplitReps(src, g, perRank); err != nil {
		return nil, err
	}
	phases := buildPhases(set, g)
	recordTelemetry(set, phases)
	return &Result{Set: set, Phases: phases}, nil
}

// mineRank streams one rank through a Miner.
func mineRank(src trace.Source, p int) streamRank {
	m := pattern.NewMiner(p)
	var total int64
	err := trace.Each(src, p, func(evs []trace.Event) error {
		total += int64(len(evs))
		m.Feed(evs)
		return nil
	})
	if err != nil {
		return streamRank{err: err}
	}
	return streamRank{laps: m.Finish(), events: total, chunks: m.ChunksFolded(), merges: m.BoundaryMerges()}
}

// fillSplitReps runs pass 2. It marks every LAP of a group that will split
// into a phase family by allocating its per-repetition RepMeta, then
// re-reads the ranks holding a marked LAP to fill them in.
func fillSplitReps(src trace.Source, g grouped, perRank []streamRank) error {
	marked := false
	for _, key := range g.order {
		ms := g.groups[key]
		if !splits(ms) {
			continue
		}
		marked = true
		// Members share the signature, hence Rep: one allocation serves
		// the whole group.
		rep := ms[0].lap.Rep
		reps := make([]pattern.RepMeta, len(ms)*rep)
		for i := range ms {
			ms[i].lap.Reps = reps[i*rep : (i+1)*rep : (i+1)*rep]
		}
	}
	if !marked {
		return nil
	}
	errs := sweep.Map(perRank, func(p int, r streamRank) error {
		return fillReps(src, p, r.laps)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillReps re-reads rank p, if any of its laps is marked (non-nil Reps),
// and indexes its data events into the marked laps' repetition slots. laps
// is the rank's whole mining output: positions tile the data events in
// Start order, so a single cursor finds each event's LAP.
func fillReps(src trace.Source, p int, laps []pattern.StreamLAP) error {
	if !slices.ContainsFunc(laps, func(l pattern.StreamLAP) bool { return l.Reps != nil }) {
		return nil
	}
	cRescans.Inc()
	i := 0  // data-event index within the rank
	li := 0 // LAP holding event i
	return trace.Each(src, p, func(evs []trace.Event) error {
		for _, ev := range evs {
			if !ev.Op.IsData() {
				continue
			}
			idx := i
			i++
			for li < len(laps) && idx >= laps[li].Start+laps[li].Len() {
				li++
			}
			if li == len(laps) {
				return nil
			}
			l := &laps[li]
			if l.Reps == nil {
				continue
			}
			k := len(l.Unit)
			rel := idx - l.Start
			rep, slot := rel/k, rel%k
			if slot == 0 {
				l.Reps[rep].Tick = ev.Tick
				l.Reps[rep].Start = ev.Time
			}
			l.Reps[rep].Elapsed += ev.Duration
		}
		return nil
	})
}
