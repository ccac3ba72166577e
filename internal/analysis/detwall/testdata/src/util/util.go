// Package util is a detwall corpus for a module helper outside the
// simulation layers, where a wall-clock read could hide from the
// simulation packages that call it. detwall checks every non-main
// package, so each source is flagged on the line that reads it,
// whoever the caller is.
package util

import (
	"math/rand"
	"time"
)

// Clock hands out the wall clock as a value: no call site ever names
// time.Now, so only the reference here can be flagged.
var Clock = time.Now // want `time.Now reads the wall clock: library packages`

// Stamp touches the wall clock directly.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time.Now reads the wall clock`
}

// Elapsed reaches the clock only through Stamp: the read is reported
// once, in Stamp, not again here.
func Elapsed() int64 { return Stamp() }

// Jitter draws from the global math/rand stream.
func Jitter() int {
	return rand.Intn(10) // want `math/rand.Intn draws from the global stream`
}

// Clean is free of nondeterminism.
func Clean() int { return 42 }
