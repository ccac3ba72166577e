// The extraction pipeline behind Identify and IdentifyStream. Events flow
// from a trace.Source through per-rank pattern.Miners, chunk by chunk via
// trace.Each; only the mined LAPs and their aggregates survive, so peak
// memory is O(np · window + LAPs + split phases) instead of O(events). A
// resident Set is not a second path: trace.Each hands its slices to the
// same code whole.
//
// The decomposition reads each rank once. The Miner aggregates per-LAP
// first tick, first start, total busy time and contiguity — enough to
// build every phase except the family-split case, where one repeated LAP
// becomes one phase per repetition and each phase needs its own
// repetition's tick, start and elapsed time. The Miner records those too
// for every split LAP whose first tick step other than +1 lies within its
// first 2·MaxPeriod events, which is where traced runs put it: the step
// that separates the first repetition from the second. A split group's
// other members — a contiguous one, or one whose first jump comes later —
// are filled by a fallback that re-reads only their ranks (the Source
// contract makes OpenRank restartable) and indexes events straight into
// the known LAP geometry: event i of a LAP starting at s with period k is
// repetition (i−s)/k, slot (i−s)%k — no re-mining. Mining and the
// fallback fan out over the sweep pool and are consumed serially in rank
// order, so the result is identical at any -j and from any source of the
// same events (pinned by identifyBoth and TestIdentifyStreamFromDir).
package phase

import (
	"cmp"
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

// identify mines every rank of src and builds the phases, re-reading a
// rank only for the fallback. set describes src's trace — it is the Set
// src reads, or an event-less one with src's metadata — and becomes the
// Result's Set. A phase weight, or a total across phases, that overflows
// int64 is an error.
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
	if err := fillSplitReps(src, g, set.NP); err != nil {
		return nil, err
	}
	phases, err := buildPhases(set, g)
	if err != nil {
		return nil, err
	}
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

// fillSplitReps is the fallback re-read. It allocates Reps for every
// member of a split group that the Miner left without — a contiguous
// member, or one whose first tick jump comes after the Miner's window —
// and re-reads only the ranks holding such a member to fill those LAPs.
// Repetitions the Miner recorded are left as they are.
func fillSplitReps(src trace.Source, g grouped, np int) error {
	var todo [][]*pattern.StreamLAP // per rank, the LAPs to fill
	for _, key := range g.order {
		ms := g.groups[key]
		if !splits(ms) {
			continue
		}
		for _, m := range ms {
			if m.lap.Reps != nil {
				continue
			}
			if todo == nil {
				todo = make([][]*pattern.StreamLAP, np)
			}
			m.lap.Reps = make([]pattern.RepMeta, m.lap.Rep)
			todo[m.rank] = append(todo[m.rank], m.lap)
		}
	}
	if todo == nil {
		return nil
	}
	errs := sweep.Map(todo, func(p int, laps []*pattern.StreamLAP) error {
		return fillReps(src, p, laps)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillReps re-reads rank p, if laps holds any of its LAPs, and indexes its
// data events into their zeroed repetition slots. Positions tile the data
// events, so with laps in Start order a single cursor finds each event's
// LAP.
func fillReps(src trace.Source, p int, laps []*pattern.StreamLAP) error {
	if len(laps) == 0 {
		return nil
	}
	cRescans.Inc()
	slices.SortFunc(laps, func(a, b *pattern.StreamLAP) int { return cmp.Compare(a.Start, b.Start) })
	i := 0  // data-event index within the rank
	li := 0 // next LAP to fill
	return trace.Each(src, p, func(evs []trace.Event) error {
		for _, ev := range evs {
			if !ev.Op.IsData() || li == len(laps) {
				continue
			}
			l := laps[li]
			rel := i - l.Start
			i++
			if rel < 0 {
				continue
			}
			k := len(l.Unit)
			rep, slot := rel/k, rel%k
			if slot == 0 {
				l.Reps[rep].Tick = ev.Tick
				l.Reps[rep].Start = ev.Time
			}
			l.Reps[rep].Elapsed += ev.Duration
			if rel == l.Len()-1 {
				li++
			}
		}
		return nil
	})
}
