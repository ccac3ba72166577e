package pattern

import "iophases/internal/trace"

// greedyExtract is the Miner's test oracle: the whole-slice statement of
// the mining rule. At each position of a rank's data events it counts, for
// every period k <= MaxPeriod, the consecutive repetitions of the k-unit
// and keeps the k maximizing covered events (ties to the smallest k).
func greedyExtract(rank int, events []trace.Event) []LAP {
	var out []LAP
	for i := 0; i < len(events); {
		bestK, bestRep := 1, 1
		maxK := MaxPeriod
		if rem := len(events) - i; maxK > rem {
			maxK = rem
		}
		for k := 1; k <= maxK; k++ {
			rep := countReps(events, i, k)
			if k > 1 && rep < 2 {
				// A composite unit that never repeats is not a
				// pattern — without this guard any k would
				// trivially "cover" k events.
				continue
			}
			if rep*k > bestRep*bestK {
				bestK, bestRep = k, rep
			}
		}
		out = append(out, buildLAP(rank, events, i, bestK, bestRep))
		i += bestK * bestRep
	}
	return out
}

// countReps counts consecutive repetitions of the k-unit starting at i.
func countReps(events []trace.Event, i, k int) int {
	rep := 1
	// Offset deltas are fixed by the first two repetitions, then must
	// hold exactly for all subsequent ones.
	var disp [MaxPeriod]int64
	for {
		base := i + rep*k
		if base+k > len(events) {
			return rep
		}
		ok := true
		for m := 0; m < k && ok; m++ {
			a, b := events[i+(rep-1)*k+m], events[base+m]
			if a.File != b.File || a.Op != b.Op || a.Size != b.Size {
				ok = false
				break
			}
			d := b.Offset - a.Offset
			if rep == 1 {
				disp[m] = d
			} else if d != disp[m] {
				ok = false
			}
		}
		if !ok {
			return rep
		}
		rep++
	}
}

// buildLAP assembles the LAP record for a confirmed run.
func buildLAP(rank int, events []trace.Event, i, k, rep int) LAP {
	unit := make([]Template, k)
	for m := 0; m < k; m++ {
		ev := events[i+m]
		var disp int64
		if rep > 1 {
			disp = events[i+k+m].Offset - ev.Offset
		}
		unit[m] = Template{
			File:       ev.File,
			Op:         ev.Op,
			Size:       ev.Size,
			InitOffset: ev.Offset,
			Disp:       disp,
		}
	}
	return LAP{Rank: rank, Start: i, Unit: unit, Rep: rep}
}
