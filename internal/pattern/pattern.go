// Package pattern extracts local access patterns (LAP) from per-rank
// traces — the compression step of Figure 3 in the paper. A LAP is a run of
// repetitions of a small periodic unit of I/O operations with constant
// offset progression: "40 writes of 10612080 bytes advancing 265302 etypes
// each" becomes one row instead of forty.
//
// The miner generalizes plain run-length encoding to composite periodic
// units (period up to MaxPeriod ops), which is what collapses MADBench2's
// interleaved (write bin i, read bin i+2) steady state into a single LAP —
// the paper's phase 3.
package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"iophases/internal/trace"
)

// MaxPeriod is the largest composite unit the miner searches for. The
// paper's workloads need 2 (write-read interleave); 4 leaves headroom for
// double-buffered patterns without inviting spurious matches.
const MaxPeriod = 4

// Template is one slot of a LAP unit: the invariant part of an operation
// across repetitions plus its per-repetition offset progression.
type Template struct {
	File       int
	Op         trace.Op
	Size       int64 // request size in bytes
	InitOffset int64 // offset of the first repetition (etype units)
	Disp       int64 // offset advance per repetition (etype units)
}

// Signature identifies templates that are "similar" across ranks (simLAP in
// Table I): everything except InitOffset.
func (t Template) Signature() string {
	return string(t.appendSignature(nil))
}

// appendSignature appends the template's signature (the fmt layout
// "f%d/%s/%d/%d" of File, Op, Size, Disp) without fmt's reflection cost —
// signature building runs once per LAP slot on every Identify call.
func (t Template) appendSignature(b []byte) []byte {
	b = append(b, 'f')
	b = strconv.AppendInt(b, int64(t.File), 10)
	b = append(b, '/')
	b = append(b, t.Op...)
	b = append(b, '/')
	b = strconv.AppendInt(b, t.Size, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, t.Disp, 10)
	return b
}

// LAP is one local access pattern: Rep repetitions of Unit, referencing the
// half-open event range [Start, Start+Rep*len(Unit)) of the rank's data
// events.
type LAP struct {
	Rank  int
	Start int // index into the rank's data-event slice
	Unit  []Template
	Rep   int
}

// Len reports the number of events the LAP covers.
func (l LAP) Len() int { return l.Rep * len(l.Unit) }

// Signature identifies LAPs that are similar across ranks.
func (l LAP) Signature() string {
	b := make([]byte, 0, 64)
	for _, t := range l.Unit {
		b = t.appendSignature(b)
		b = append(b, '|')
	}
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(l.Rep), 10)
	return string(b)
}

// Bytes reports the total data volume of the LAP.
func (l LAP) Bytes() int64 {
	var unit int64
	for _, t := range l.Unit {
		unit += t.Size
	}
	return unit * int64(l.Rep)
}

// Extract mines rank's events into LAPs: one Feed of a Miner, so in-memory
// and streamed traces share one mining rule. Non-data events are skipped,
// and LAP.Start indexes the rank's data events.
func Extract(rank int, events []trace.Event) []StreamLAP {
	m := NewMiner(rank)
	m.Feed(events)
	return m.Finish()
}

// Expand reconstructs the event skeleton (file, op, size, offset) a LAP
// stands for, in order. It is the inverse used by the round-trip property
// tests: Expand(Extract(events)) must reproduce events' data fields
// exactly.
func Expand(laps []StreamLAP) []Template {
	var out []Template
	for _, l := range laps {
		for r := 0; r < l.Rep; r++ {
			for _, t := range l.Unit {
				out = append(out, Template{
					File:       t.File,
					Op:         t.Op,
					Size:       t.Size,
					InitOffset: t.InitOffset + int64(r)*t.Disp,
				})
			}
		}
	}
	return out
}

// FormatTable renders LAPs in the column layout of Figure 3.
func FormatTable(laps []StreamLAP) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-4s %-26s %-5s %-12s %-12s %s\n",
		"IdP", "IdF", "MPI-Operation", "Rep", "RequestSize", "Disp", "OffsetInit")
	for _, l := range laps {
		for _, t := range l.Unit {
			fmt.Fprintf(&b, "%-4d %-4d %-26s %-5d %-12d %-12d %d\n",
				l.Rank, t.File, t.Op, l.Rep, t.Size, t.Disp, t.InitOffset)
		}
	}
	return b.String()
}
