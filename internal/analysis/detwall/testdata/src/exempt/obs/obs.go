// Package obs is a detwall negative corpus: its base name matches the
// telemetry package, which times the process rather than the
// simulation, so its wall-clock reads are legal.
package obs

import "time"

func Span() int64 { return time.Now().UnixNano() }
