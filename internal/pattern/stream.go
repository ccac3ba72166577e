// Incremental LAP mining — the package's one miner. A Miner is fed a rank's
// events in arbitrary chunks (Extract feeds one chunk, phase identification
// feeds trace.Each's) and mines them greedily left to right: at each
// position it chooses the period k ≤ MaxPeriod maximizing covered events
// (ties to the smallest k), requiring every slot to repeat with identical
// (file, op, size) and a constant per-repetition offset delta. It retains
// O(1) state per rank: the first MaxPeriod events of the current position
// (the unit templates under construction) and a ring of the last
// 2·MaxPeriod events (the comparison window and the partial tail carried
// across chunk boundaries). Peak memory is therefore independent of trace
// length — the property phase.IdentifyStream builds its bounded-memory
// pipeline on.
//
// Equivalence argument (pinned by TestMinerMatchesExtract against a greedy
// whole-slice oracle): the greedy rule decides each position by counting,
// for every period k ≤ MaxPeriod, the consecutive repetitions of the
// k-unit. The Miner tracks the same candidates event-by-event: event j of a
// position is slot j mod k of repetition j div k, and is compared against
// event j−k, which is at most MaxPeriod back — inside the ring. A candidate
// dies at its first failed comparison with its repetition count frozen
// exactly where the whole-slice count would stop. When every candidate is
// dead (or input ends) the winner is known — remaining candidates can never
// improve — and the chosen coverage C satisfies C > j − MaxPeriod (the
// last-dying candidate's complete repetitions reach within one unit of j),
// so the ≤ MaxPeriod leftover events are still in the ring and are
// replayed as the next position's prefix. (When input ends with a candidate
// still inside its second repetition, j < 2·MaxPeriod and the ring holds
// the whole position.)
//
// Repetition timing (pinned by FuzzMiner): a LAP is contiguous when every
// tick step inside it is +1. A repeated LAP that is not becomes one phase
// per repetition, and each of those phases needs its repetition's first
// tick, start time and busy time. The Miner notes each position's first
// tick step other than +1; when that step lies within the position's
// first 2·MaxPeriod events — still in the ring — it seeds a log of (tick,
// start, cumulative duration) from the ring and extends it to the end of
// the position, and the decision times every repetition of a LAP that
// spans the step from it. Such a LAP covers at least two events, so it
// repeats and splits into one phase per repetition; a LAP that ends before
// the step leaves a position of fewer than window + MaxPeriod events. So
// the log holds at most that many events more than the split phases it
// yields, whatever the ticks do. A step past the window starts no log,
// and phase identification re-reads the rank for such a LAP instead.
package pattern

import (
	"iophases/internal/trace"
	"iophases/internal/units"
)

// window is the bounded tail the Miner retains: the ring holds 2·MaxPeriod
// events, the carry limit promised by the streaming design.
const window = 2 * MaxPeriod

// RepMeta is the measured timing of one repetition of a StreamLAP, needed
// only for LAPs whose repetitions become separate phases (the family-split
// case).
type RepMeta struct {
	Tick    int64          // tick of the repetition's first slot
	Start   units.Duration // virtual time of the repetition's first slot
	Elapsed units.Duration // sum of the repetition's op durations
}

// StreamLAP is a mined LAP plus the aggregates phase identification needs
// once the underlying events are gone: first tick and start time, the
// total busy time, the contiguity test, and per-repetition timing when
// the repetitions split.
type StreamLAP struct {
	LAP
	FirstTick  int64
	FirstStart units.Duration
	Elapsed    units.Duration // sum of op durations over all repetitions
	// Reps times each repetition. The Miner records it for a repeated,
	// non-contiguous LAP whose first tick step other than +1 lies within
	// its first 2·MaxPeriod events; otherwise it is nil until phase
	// identification re-reads the rank to fill it.
	Reps []RepMeta

	stepped bool // some tick step inside the LAP is not +1
}

// Contiguous reports whether every tick step inside the run is +1, i.e.
// no other MPI events were interleaved. This is the paper's criterion for
// keeping repetitions inside one phase ("there are not other MPI events
// between the reading operations") versus splitting them.
func (l *StreamLAP) Contiguous() bool { return !l.stepped }

// minerCand is one period candidate of the current position.
type minerCand struct {
	dead bool
	reps int // confirmed complete repetitions
	disp [MaxPeriod]int64
}

// Miner incrementally mines one rank's event stream into LAPs.
type Miner struct {
	rank int
	out  []StreamLAP

	// Current-position state: j data events consumed since the position
	// started at absolute data-event index start. head pins the first
	// MaxPeriod events (unit templates); ring holds the last window events
	// with position-relative cumulative durations, slotted by absolute
	// index so that a decision's overrun is replayed in place.
	j       int
	start   int
	head    [MaxPeriod]trace.Event
	ring    [window]trace.Event
	ringCum [window]units.Duration
	sum     units.Duration
	cand    [MaxPeriod]minerCand

	// step is the index of the position's first event whose tick is not
	// its predecessor's +1 (0: none yet). When step < window, log holds
	// every event of the position so far: its tick, its start, and in
	// Elapsed the position-relative cumulative duration. A decision
	// rewrites the log in place into the winner's Reps and carves them
	// off its front, so the log's spare capacity serves later positions.
	step int
	log  []RepMeta

	feedSeq int // chunks folded so far
	posSeq  int // feedSeq when the current position started
	merges  int // LAPs whose events spanned more than one chunk
}

// NewMiner returns a Miner for rank p's stream.
func NewMiner(p int) *Miner { return &Miner{rank: p} }

// Feed folds one chunk into the miner. Non-data events are skipped (the
// streaming equivalent of Set.DataEvents); chunk boundaries are invisible
// to the mining decision.
func (m *Miner) Feed(events []trace.Event) {
	m.feedSeq++
	for _, ev := range events {
		if !ev.Op.IsData() {
			continue
		}
		m.feedOne(ev)
	}
}

// Finish flushes the tail into final LAPs and returns the full sequence.
func (m *Miner) Finish() []StreamLAP {
	for m.j > 0 {
		m.decide()
	}
	return m.out
}

// BoundaryMerges reports how many emitted LAPs were assembled from events
// spanning more than one Feed chunk.
func (m *Miner) BoundaryMerges() int { return m.merges }

// ChunksFolded reports how many chunks have been fed.
func (m *Miner) ChunksFolded() int { return m.feedSeq }

// at returns event idx of the current position, which must be among the
// last window events (comparisons and decisions only read those).
func (m *Miner) at(idx int) *trace.Event { return &m.ring[(m.start+idx)%window] }

func (m *Miner) feedOne(ev trace.Event) {
	j := m.j
	if j == 0 {
		m.posSeq = m.feedSeq
	}
	if j < MaxPeriod {
		m.head[j] = ev
	}
	alive := false
	for k := 1; k <= MaxPeriod; k++ {
		c := &m.cand[k-1]
		if c.dead {
			continue
		}
		r, slot := j/k, j%k
		if r == 0 {
			// Template repetition: nothing to compare yet.
			if slot == k-1 {
				c.reps = 1
			}
			alive = true
			continue
		}
		prev := m.at(j - k)
		if prev.File != ev.File || prev.Op != ev.Op || prev.Size != ev.Size {
			c.dead = true
			continue
		}
		d := ev.Offset - prev.Offset
		if r == 1 {
			c.disp[slot] = d
		} else if d != c.disp[slot] {
			c.dead = true
			continue
		}
		if slot == k-1 {
			c.reps = r + 1
		}
		alive = true
	}
	if j > 0 && m.step == 0 && ev.Tick != m.at(j-1).Tick+1 {
		m.step = j
		if j < window {
			// Events 0..j-1 of the position are still in the ring.
			for i := 0; i < j; i++ {
				s := (m.start + i) % window
				m.logEvent(RepMeta{m.ring[s].Tick, m.ring[s].Time, m.ringCum[s]})
			}
		}
	}
	m.sum += ev.Duration
	if m.step > 0 && m.step < window {
		m.logEvent(RepMeta{ev.Tick, ev.Time, m.sum})
	}
	slot := (m.start + j) % window
	m.ring[slot] = ev
	m.ringCum[slot] = m.sum
	m.j = j + 1
	if !alive {
		m.decide()
	}
}

// decide picks the winning (period, repetitions) for the current position —
// the greedy rule: maximize covered events, ties to the smallest period,
// composite units must repeat at least twice — emits the LAP, timing its
// repetitions from the log when it spans a logged step, and replays the
// ≤ MaxPeriod leftover events as the next position's prefix.
func (m *Miner) decide() {
	if m.j == 0 {
		return
	}
	bestK, bestRep := 1, 1
	for k := 1; k <= MaxPeriod; k++ {
		rep := m.cand[k-1].reps
		if rep == 0 || (k > 1 && rep < 2) {
			continue
		}
		if rep*k > bestRep*bestK {
			bestK, bestRep = k, rep
		}
	}

	unit := make([]Template, bestK)
	for s := 0; s < bestK; s++ {
		ev := m.head[s]
		var disp int64
		if bestRep > 1 {
			disp = m.cand[bestK-1].disp[s]
		}
		unit[s] = Template{File: ev.File, Op: ev.Op, Size: ev.Size, InitOffset: ev.Offset, Disp: disp}
	}
	c := bestK * bestRep
	l := StreamLAP{
		LAP:        LAP{Rank: m.rank, Start: m.start, Unit: unit, Rep: bestRep},
		FirstTick:  m.head[0].Tick,
		FirstStart: m.head[0].Time,
		Elapsed:    m.ringCum[(m.start+c-1)%window],
		stepped:    m.step > 0 && m.step < c,
	}
	if l.stepped && m.step < window {
		// A stepped LAP covers at least two events, so it repeats.
		// Repetition r reads log entries r·k .. r·k+k−1 and writes
		// entry r ≤ r·k, so the rewrite never clobbers an unread entry.
		var prev units.Duration
		for r := 0; r < bestRep; r++ {
			first, cum := m.log[r*bestK], m.log[(r+1)*bestK-1].Elapsed
			m.log[r] = RepMeta{Tick: first.Tick, Start: first.Start, Elapsed: cum - prev}
			prev = cum
		}
		l.Reps = m.log[:bestRep:bestRep]
		m.log = m.log[bestRep:]
	}
	if m.out == nil {
		// A rank usually mines a handful of LAPs: let the first four
		// share one allocation.
		m.out = make([]StreamLAP, 0, 4)
	}
	m.out = append(m.out, l)
	if m.feedSeq > m.posSeq {
		m.merges++
	}

	// Replay the overrun past the winner's coverage as a fresh position.
	// An event's ring slot is its absolute index mod window, so the
	// overrun is fed back in place: every write during the replay puts an
	// event back into its own slot, including the writes of a decision
	// nested in the replay, which re-feeds a suffix of the events replayed
	// so far.
	over := m.j - c
	m.start += c
	m.j = 0
	m.sum = 0
	m.cand = [MaxPeriod]minerCand{}
	m.step = 0
	m.log = m.log[:0]
	for i, base := 0, m.start; i < over; i++ {
		m.feedOne(m.ring[(base+i)%window])
	}
}

// logEvent appends one event to the repetition log, growing it fourfold
// at a time: a long split LAP costs a few allocations, not one per
// doubling.
func (m *Miner) logEvent(e RepMeta) {
	if len(m.log) == cap(m.log) {
		grown := make([]RepMeta, len(m.log), max(2*window, 4*len(m.log)))
		copy(grown, m.log)
		m.log = grown
	}
	m.log = append(m.log, e)
}
