// Package phase identifies the I/O phases of a traced parallel application
// — the central construct of the paper (§III-A1). A phase groups similar
// local access patterns (simLAP) of a number of processes at similar
// logical times; its significance is its weight = rep · rs · np, and its
// placement is a closed-form initial-offset function f(initOffset) of the
// process id (and, for phase families like BT-IO's fifty write rounds, of
// the phase number).
package phase

import (
	"fmt"
	"sort"
	"strings"

	"iophases/internal/obs"
	"iophases/internal/pattern"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// OpSpec is one operation slot of a phase's repeating unit.
type OpSpec struct {
	Op   trace.Op
	Size int64 // request size in bytes (rs)
	Disp int64 // physical byte advance per repetition within the phase
	Skew int64 // physical byte offset of this slot relative to slot 0
}

// RankAccess is one rank's participation in a phase.
type RankAccess struct {
	Rank       int
	InitOffset int64          // physical byte offset of the first access
	Elapsed    units.Duration // sum of the rank's op durations in the phase
	Start      units.Duration // first op start (app-relative)
}

// Phase is one I/O phase (Table I: {idPH, idF, weight, f(initOffset)}).
type Phase struct {
	ID         int // idPH, 1-based in tick order
	File       int // idF
	Ops        []OpSpec
	Rep        int
	NP         int // processes participating
	Ranks      []RankAccess
	Tick       int64 // earliest first-op tick across ranks
	Weight     int64 // rep · Σ rs · np, in bytes
	Collective bool
	OffsetFn   OffsetFn

	// Family links phases split from one repeated pattern (e.g. BT-IO's
	// write rounds 1..50): FamilyID is shared and FamilyRep is the
	// 1-based repetition index (the "ph" of Table XI). Unsplit phases
	// have FamilyRep 0.
	FamilyID  int
	FamilyRep int
}

// RequestSize reports the dominant request size (first op slot).
func (ph *Phase) RequestSize() int64 { return ph.Ops[0].Size }

// IsWrite / IsRead / IsMixed classify the phase's operation direction.
func (ph *Phase) IsWrite() bool { return ph.direction() == "W" }
func (ph *Phase) IsRead() bool  { return ph.direction() == "R" }
func (ph *Phase) IsMixed() bool { return ph.direction() == "W-R" }

func (ph *Phase) direction() string {
	var w, r bool
	for _, op := range ph.Ops {
		w = w || op.Op.IsWrite()
		r = r || op.Op.IsRead()
	}
	switch {
	case w && r:
		return "W-R"
	case w:
		return "W"
	default:
		return "R"
	}
}

// OpCount reports the total operation count of the phase (the "#Oper."
// column of Tables IX and X): ops per unit × rep × np.
func (ph *Phase) OpCount() int { return len(ph.Ops) * ph.Rep * ph.NP }

// StartTime is the phase's earliest operation start in the traced run
// (app-relative virtual time).
func (ph *Phase) StartTime() units.Duration {
	var min units.Duration = 1 << 62
	for _, ra := range ph.Ranks {
		if ra.Start < min {
			min = ra.Start
		}
	}
	return min
}

// MeasuredTime is the phase's elapsed I/O time in the traced run: ranks
// proceed concurrently, so it is the maximum per-rank busy time.
func (ph *Phase) MeasuredTime() units.Duration {
	var max units.Duration
	for _, ra := range ph.Ranks {
		if ra.Elapsed > max {
			max = ra.Elapsed
		}
	}
	return max
}

// MeasuredBW is the aggregate bandwidth the application achieved in this
// phase — the BW_MD of Eq. 5–7.
func (ph *Phase) MeasuredBW() units.Bandwidth {
	return units.BandwidthOf(ph.Weight, ph.MeasuredTime())
}

// OffsetFn is the fitted f(initOffset): for rank idP in repetition ph of a
// family,
//
//	initOffset = C + A·idP + B·(ph−1) + D·idP·(ph−1)   (bytes)
//
// Unsplit phases use only C + A·idP.
type OffsetFn struct {
	C, A, B, D int64
	Exact      bool // fit reproduces every observed offset exactly
}

// Eval computes the modeled offset for a rank and family repetition
// (familyRep is 1-based; pass 1 for unsplit phases).
func (f OffsetFn) Eval(idP int, familyRep int) int64 {
	k := int64(familyRep - 1)
	return f.C + f.A*int64(idP) + f.B*k + f.D*int64(idP)*k
}

// Render formats the function in the paper's style, factoring coefficients
// by the request size when they divide evenly (e.g. "rs*idP + rs*(np-1)*(ph-1)").
func (f OffsetFn) Render(rs int64, np int) string {
	var terms []string
	add := func(coef int64, sym string) {
		if coef == 0 {
			return
		}
		switch {
		case rs > 0 && coef%rs == 0 && coef/rs != 1:
			terms = append(terms, fmt.Sprintf("%d*rs%s", coef/rs, sym))
		case rs > 0 && coef == rs:
			terms = append(terms, fmt.Sprintf("rs%s", sym))
		default:
			terms = append(terms, fmt.Sprintf("%d%s", coef, sym))
		}
	}
	add(f.C, "")
	add(f.A, "*idP")
	add(f.B, "*(ph-1)")
	add(f.D, "*idP*(ph-1)")
	if len(terms) == 0 {
		return "0"
	}
	s := strings.Join(terms, " + ")
	if !f.Exact {
		s += " (approx)"
	}
	return s
}

// Result is the phase decomposition of one traced run.
type Result struct {
	Set    *trace.Set
	Phases []*Phase
}

// Identify extracts LAPs per rank, groups similar LAPs across ranks, splits
// repetition rounds separated by other MPI events into per-round phases,
// fits offset functions, and returns phases ordered by tick. It is
// IdentifyStream over the set's own Source, which trace.Each reads from
// the resident slices without copying; the returned Result's Set is set
// itself, events included. Identify panics where IdentifyStream would
// return an error; its sets come from the simulator, whose volumes fit
// in int64, so none arises.
func Identify(set *trace.Set) *Result {
	res, err := identify(set.Source(), set)
	if err != nil {
		// A Set's Source only fails on an out-of-range rank, and
		// identify asks for ranks [0, NP) alone; the only other
		// error is a volume that overflows int64.
		panic(err)
	}
	return res
}

// groupKey identifies a simLAP group: the occ-th LAP of its signature on
// every rank. The signature stays a string so the key fits Go's inline
// map-key limit; a comparable struct of the LAP's fields would not, and
// every map entry would allocate.
type groupKey struct {
	occ int
	sig string
}

// grouped is the cross-rank similarity grouping: simLAP groups in
// first-seen order.
type grouped struct {
	groups map[groupKey][]member
	order  []groupKey
}

// groupMembers buckets every rank's LAPs by occurrence-counted similarity
// key, visiting ranks in rank order and each rank's LAPs in mining order —
// the serial consumption that keeps grouping deterministic at any
// worker-pool width.
func groupMembers(perRank []streamRank) grouped {
	g := grouped{groups: make(map[groupKey][]member)}
	occ := make(map[string]int)
	for p := range perRank {
		clear(occ)
		laps := perRank[p].laps
		for i := range laps {
			sig := laps[i].Signature()
			key := groupKey{occ[sig], sig}
			occ[sig]++
			if _, seen := g.groups[key]; !seen {
				g.order = append(g.order, key)
			}
			g.groups[key] = append(g.groups[key], member{rank: p, lap: &laps[i]})
		}
	}
	return g
}

// splits reports whether a group becomes a per-round phase family: its
// LAPs repeat, and some member's repetitions are separated by other MPI
// events.
func splits(ms []member) bool {
	if ms[0].lap.Rep == 1 {
		return false
	}
	for i := range ms {
		if !ms[i].lap.Contiguous() {
			return true
		}
	}
	return false
}

// buildPhases turns similarity groups into phases: contiguous (or
// single-repetition) groups become one phase, groups whose repetitions are
// separated by other MPI events split into per-round phase families; then
// tick-sort, number, weigh, and fit family offset functions.
func buildPhases(set *trace.Set, g grouped) ([]*Phase, error) {
	var phases []*Phase
	family := 0
	for _, key := range g.order {
		ms := g.groups[key]
		l0 := ms[0].lap
		if !splits(ms) {
			phases = append(phases, buildPhase(set, ms, mergedSpec{rep: l0.Rep}, 0, 0))
			continue
		}
		// Repetitions separated by other MPI events: one phase per
		// round, linked as a family (BT-IO's write rounds).
		family++
		for rep := 0; rep < l0.Rep; rep++ {
			phases = append(phases, buildPhase(set, ms, mergedSpec{rep: 1, round: rep}, family, rep+1))
		}
	}

	sort.SliceStable(phases, func(i, j int) bool { return phases[i].Tick < phases[j].Tick })
	for i, ph := range phases {
		ph.ID = i + 1
	}
	if err := weigh(phases); err != nil {
		return nil, err
	}
	fitFamilies(phases)
	return phases, nil
}

// weigh sets each phase's weight, rep · Σ rs · np. A weight, or a running
// total across phases, that overflows int64 is an error naming the phase:
// a trace's sizes are untrusted, and a wrapped volume would give a model
// of 0 or negative bytes. A negative request size does not wrap; it
// passes here, and core.Load rejects it at the model-file boundary.
func weigh(phases []*Phase) error {
	var total int64
	for _, ph := range phases {
		w, ok := int64(0), true
		for _, op := range ph.Ops {
			w, ok = addVolume(w, op.Size, ok)
		}
		w, ok = mulVolume(w, int64(ph.Rep), ok)
		w, ok = mulVolume(w, int64(ph.NP), ok)
		if !ok {
			return fmt.Errorf("phase: phase %d (tick %d): weight rep·Σrs·np (rep %d, %d ops, np %d) overflows int64",
				ph.ID, ph.Tick, ph.Rep, len(ph.Ops), ph.NP)
		}
		ph.Weight = w
		if total, ok = addVolume(total, w, true); !ok {
			return fmt.Errorf("phase: phase %d (tick %d): total volume through this phase overflows int64",
				ph.ID, ph.Tick)
		}
	}
	return nil
}

// addVolume and mulVolume are int64 byte arithmetic that reports false,
// and keeps reporting it, once a result overflows. mulVolume's count n is
// a repetition or rank count, at least 1.
func addVolume(a, b int64, ok bool) (int64, bool) {
	s := a + b
	return s, ok && (s > a) == (b > 0)
}

func mulVolume(a, n int64, ok bool) (int64, bool) {
	p := a * n
	return p, ok && n > 0 && p/n == a
}

// recordTelemetry reports the decomposition to the run-telemetry layer:
// one "measured" row per phase for the -metrics dump, and — when a
// timeline was requested — one span per phase on a virtual-time track for
// the traced run, carrying the weight/rs/np/bandwidth attributes the
// paper's tables are built from. No-op unless telemetry is enabled, so the
// identification hot path is untouched in normal runs.
func recordTelemetry(set *trace.Set, phases []*Phase) {
	if !obs.Enabled() {
		return
	}
	tr := obs.Timeline().Track("trace "+set.App+"@"+set.Config, "phases")
	for _, ph := range phases {
		start := ph.StartTime()
		elapsed := ph.MeasuredTime()
		obs.RecordPhase(obs.PhaseRecord{
			App:       set.App,
			Config:    set.Config,
			Source:    "measured",
			Phase:     ph.ID,
			NP:        ph.NP,
			RS:        ph.RequestSize(),
			Weight:    ph.Weight,
			Dir:       ph.direction(),
			BWMDMBps:  ph.MeasuredBW().MBpsValue(),
			TimeMDSec: elapsed.Seconds(),
		})
		tr.Span(fmt.Sprintf("phase %d", ph.ID), int64(start), int64(start+elapsed),
			obs.Arg{Key: "weight", Value: ph.Weight},
			obs.Arg{Key: "rs", Value: ph.RequestSize()},
			obs.Arg{Key: "np", Value: ph.NP},
			obs.Arg{Key: "bwMBps", Value: ph.MeasuredBW().MBpsValue()},
			obs.Arg{Key: "dir", Value: ph.direction()})
	}
}

// mergedSpec tells buildPhase which slice of the LAP a phase covers.
type mergedSpec struct {
	rep   int // repetitions inside this phase
	round int // starting repetition (0-based) within the LAP
}

// member is one rank's contribution to a simLAP group: the mined LAP and
// the aggregates the Miner carries once the events are gone.
type member struct {
	rank int
	lap  *pattern.StreamLAP
}

// firstOf returns the tick, start time, and logical offset of slot 0 of
// repetition round. The offset is exact, not reconstructed: the miner only
// keeps a repetition alive while every slot advances by its constant
// displacement, so slot 0 of round r is InitOffset + r·Disp by the
// invariant that admitted the repetition.
func (m *member) firstOf(round int) (tick int64, start units.Duration, off int64) {
	t := m.lap.Unit[0]
	off = t.InitOffset + int64(round)*t.Disp
	if round == 0 {
		return m.lap.FirstTick, m.lap.FirstStart, off
	}
	r := m.lap.Reps[round]
	return r.Tick, r.Start, off
}

// elapsed sums the member's op durations over rep repetitions starting at
// round. The whole-LAP case is answered from the running aggregate; split
// rounds need the per-repetition detail the Miner records or the fallback
// re-read fills in.
func (m *member) elapsed(round, rep int) units.Duration {
	if round == 0 && rep == m.lap.Rep {
		return m.lap.Elapsed
	}
	var d units.Duration
	for r := round; r < round+rep; r++ {
		d += m.lap.Reps[r].Elapsed
	}
	return d
}

func buildPhase(set *trace.Set, members []member, spec mergedSpec, familyID, familyRep int) *Phase {
	l0 := members[0].lap
	ph := &Phase{
		File:      l0.Unit[0].File,
		Rep:       spec.rep,
		NP:        len(members),
		FamilyID:  familyID,
		FamilyRep: familyRep,
	}
	// Operation slots: physical per-repetition displacement and the
	// slot's physical skew from slot 0 (e.g. MADBench2's steady-state
	// reads run two bins ahead of its writes).
	phys := set.View(ph.File, l0.Rank).Physical
	slot0 := phys(l0.Unit[0].InitOffset)
	for _, t := range l0.Unit {
		ph.Ops = append(ph.Ops, OpSpec{
			Op:   t.Op,
			Size: t.Size,
			Disp: phys(t.InitOffset+t.Disp) - phys(t.InitOffset),
			Skew: phys(t.InitOffset) - slot0,
		})
		if t.Op.IsCollective() {
			ph.Collective = true
		}
	}
	ph.Tick = int64(1) << 62
	for i := range members {
		m := &members[i]
		tick, start, off := m.firstOf(spec.round)
		if tick < ph.Tick {
			ph.Tick = tick
		}
		ph.Ranks = append(ph.Ranks, RankAccess{
			Rank:       m.rank,
			InitOffset: set.View(ph.File, m.rank).Physical(off),
			Elapsed:    m.elapsed(spec.round, spec.rep),
			Start:      start,
		})
	}
	ph.OffsetFn = fitOffsets(ph.Ranks)
	return ph
}

// fitOffsets computes C + A·idP from observed per-rank offsets (exact
// integer fit when possible).
func fitOffsets(ranks []RankAccess) OffsetFn {
	if len(ranks) == 0 {
		return OffsetFn{Exact: true}
	}
	if len(ranks) == 1 {
		return OffsetFn{C: ranks[0].InitOffset, Exact: true}
	}
	// Least-squares slope over (idP, offset); offsets in real patterns
	// are exactly affine, so verify and flag.
	var n, sx, sy, sxx, sxy float64
	for _, ra := range ranks {
		x, y := float64(ra.Rank), float64(ra.InitOffset)
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	var a float64
	if den != 0 {
		a = (n*sxy - sx*sy) / den
	}
	A := int64(a + 0.5*sign(a))
	C := ranks[0].InitOffset - A*int64(ranks[0].Rank)
	fn := OffsetFn{C: C, A: A, Exact: true}
	for _, ra := range ranks {
		if fn.Eval(ra.Rank, 1) != ra.InitOffset {
			fn.Exact = false
			break
		}
	}
	return fn
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// fitFamilies lifts per-phase offset fits to the family form with (ph−1)
// terms, Table XI style: B and D come from consecutive rounds and are
// verified across the whole family.
func fitFamilies(phases []*Phase) {
	byFamily := make(map[int][]*Phase)
	for _, ph := range phases {
		if ph.FamilyID > 0 {
			byFamily[ph.FamilyID] = append(byFamily[ph.FamilyID], ph)
		}
	}
	for _, fam := range byFamily {
		sort.Slice(fam, func(i, j int) bool { return fam[i].FamilyRep < fam[j].FamilyRep })
		if len(fam) < 2 {
			continue
		}
		base, next := fam[0].OffsetFn, fam[1].OffsetFn
		if !base.Exact || !next.Exact {
			continue
		}
		full := OffsetFn{
			C: base.C, A: base.A,
			B: next.C - base.C, D: next.A - base.A,
			Exact: true,
		}
		for _, ph := range fam {
			for _, ra := range ph.Ranks {
				if full.Eval(ra.Rank, ph.FamilyRep) != ra.InitOffset {
					full.Exact = false
				}
			}
		}
		if full.Exact {
			for _, ph := range fam {
				fn := full
				ph.OffsetFn = fn
			}
		}
	}
}

// TotalBytes sums phase weights; it must equal the trace's data volume
// (conservation property).
func (r *Result) TotalBytes() int64 {
	var n int64
	for _, ph := range r.Phases {
		n += ph.Weight
	}
	return n
}

// Families groups the result's phases by family id (0 = unsplit, listed
// individually).
func (r *Result) Families() [][]*Phase {
	var out [][]*Phase
	index := make(map[int]int)
	for _, ph := range r.Phases {
		if ph.FamilyID == 0 {
			out = append(out, []*Phase{ph})
			continue
		}
		if i, ok := index[ph.FamilyID]; ok {
			out[i] = append(out[i], ph)
		} else {
			index[ph.FamilyID] = len(out)
			out = append(out, []*Phase{ph})
		}
	}
	return out
}

// FormatTable renders phases in the layout of Table VIII.
func (r *Result) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-12s %-34s %-5s %-10s %s\n",
		"Phase", "#Oper.", "InitOffset", "Rep", "weight", "tick")
	for _, ph := range r.Phases {
		fmt.Fprintf(&b, "%-6d %-12s %-34s %-5d %-10s %d\n",
			ph.ID,
			fmt.Sprintf("%d %s", ph.OpCount(), ph.direction()),
			ph.OffsetFn.Render(ph.RequestSize(), ph.NP),
			ph.Rep,
			units.FormatBytes(ph.Weight),
			ph.Tick)
	}
	return b.String()
}
