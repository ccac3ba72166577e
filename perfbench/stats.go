package main

import (
	"sort"
	"time"
)

// Latency statistics are computed here, not borrowed from the program
// (report.Latencies), so a change to the program's statistics can never
// change how the benchmark scores it.

// percentile returns the nearest-rank percentile of ascending samples: the
// smallest sample with at least perMille/1000 of the samples at or below it.
// Integer arithmetic keeps the rank exact (95 % of 200 is rank 190, never
// 191 through float rounding).
func percentile(sorted []float64, perMille int) float64 {
	return sorted[nearestRank(len(sorted), perMille)-1]
}

// nearestRank is the 1-based rank of the perMille-th percentile among n
// samples.
func nearestRank(n, perMille int) int {
	r := (perMille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// median is the middle sample, or the mean of the two middle samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// minBeyond is how many samples must lie above the reported tail, so the
// tail is never a single outlier and never the median's own sample.
const minBeyond = 10

// tailStat is a tail percentile and the number of samples beyond it.
type tailStat struct {
	value    float64
	perMille int
	beyond   int
}

// tailAt is the nearest-rank perMille-th percentile of ascending samples.
func tailAt(sorted []float64, perMille int) tailStat {
	r := nearestRank(len(sorted), perMille)
	return tailStat{value: sorted[r-1], perMille: perMille, beyond: len(sorted) - r}
}

// minOps is the least number of samples that leaves minBeyond of them
// beyond the perMille-th percentile: 100 for p90, 1000 for p99. Any larger
// number leaves at least as many.
func minOps(perMille int) int {
	n := minBeyond
	for n-nearestRank(n, perMille) < minBeyond {
		n++
	}
	return n
}

// opsPerSecond is completed ops over the wall time of the timed loop.
func opsPerSecond(ops int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(ops) / wall.Seconds()
}

// sortedMillis converts latencies to ascending milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// interval is a span's [start, end) on the recorder clock.
type interval struct{ start, end time.Duration }

// unionLength is the total length covered by the intervals, clipped to
// within: overlapping intervals (sweep-pool workers running side by side)
// count once.
func unionLength(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals.
func selfTime(span interval, children []interval) time.Duration {
	return span.end - span.start - unionLength(span, children)
}
