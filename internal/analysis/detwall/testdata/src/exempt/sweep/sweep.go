// Package sweep is a detwall negative corpus: its base name matches the
// worker pool, whose utilization figures measure real time, so its
// wall-clock reads are legal.
package sweep

import "time"

func Busy(start time.Time) time.Duration { return time.Since(start) }
