// Package helper is the callee side of the facts corpus: a module
// helper that touches the wall clock, one clean function, and a method,
// so the call-graph and reachability tests have known shapes to assert.
package helper

import "time"

// Stamp touches the wall clock directly.
func Stamp() int64 { return time.Now().UnixNano() }

// Clean is wall-clock free.
func Clean() int { return 1 }

// Gauge exercises method nodes in the graph.
type Gauge struct{ n int }

// Mark is a method that reaches the clock through Stamp.
func (g *Gauge) Mark() { g.n = int(Stamp()) }

// Seam is a sanctioned boundary: it touches the clock but its callers
// are clean by design (the barrier test cuts propagation here).
func Seam() int64 { return time.Now().UnixNano() }
