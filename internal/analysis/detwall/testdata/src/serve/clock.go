// Package serve is a detwall corpus for the wall-clock seam: clock.go
// is the package's allowlisted seam file, so the wall-clock reads here
// must NOT be flagged.
package serve

import "time"

func now() time.Time { return time.Now() }

func since(t time.Time) time.Duration { return time.Since(t) }
