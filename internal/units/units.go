// Package units provides byte-size and bandwidth quantities shared by the
// whole simulator stack. All sizes are int64 byte counts and all simulated
// durations are des-style integer nanoseconds, so arithmetic stays exact and
// deterministic across platforms.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Byte size multiples (binary, as used by IOR and IOzone).
const (
	B   int64 = 1
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)

// Bandwidth is a data rate in bytes per second. The simulator uses float64
// rates only at the edges (configuration constants, report output); transfer
// durations are computed in integer nanoseconds.
type Bandwidth float64

// Common bandwidth constructors.
func MBps(v float64) Bandwidth { return Bandwidth(v * float64(MiB)) }
func GBps(v float64) Bandwidth { return Bandwidth(v * float64(GiB)) }

// MBpsValue reports the bandwidth in MiB/s, the unit every table of the
// paper uses.
func (b Bandwidth) MBpsValue() float64 { return float64(b) / float64(MiB) }

func (b Bandwidth) String() string {
	return fmt.Sprintf("%.2f MB/s", b.MBpsValue())
}

// Duration is simulated time in nanoseconds. A dedicated type (rather than
// time.Duration) keeps the virtual clock visibly separate from wall time.
type Duration int64

const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	return fmt.Sprintf("%.6fs", d.Seconds())
}

// FromSeconds converts floating-point seconds to a Duration, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}

// TransferTime is the time to move size bytes at rate bw. It is the single
// place where bytes and bandwidth meet, so every component computes transfer
// costs identically. A non-positive bandwidth panics: it is a configuration
// bug, not a runtime condition.
func TransferTime(size int64, bw Bandwidth) Duration {
	if bw <= 0 {
		panic("units: non-positive bandwidth")
	}
	if size <= 0 {
		return 0
	}
	sec := float64(size) / float64(bw)
	return FromSeconds(sec)
}

// BandwidthOf reports the achieved bandwidth for moving size bytes in d.
// Zero duration yields zero bandwidth so callers need not special-case
// instantaneous (cache-absorbed) transfers.
func BandwidthOf(size int64, d Duration) Bandwidth {
	if d <= 0 || size <= 0 {
		return 0
	}
	return Bandwidth(float64(size) / d.Seconds())
}

// FormatBytes renders a byte count with a binary suffix, e.g. "32MB" or
// "4GB", matching the compact style used in the paper's tables.
func FormatBytes(n int64) string {
	switch {
	case n >= GiB && n%GiB == 0:
		return fmt.Sprintf("%dGB", n/GiB)
	case n >= MiB && n%MiB == 0:
		return fmt.Sprintf("%dMB", n/MiB)
	case n >= KiB && n%KiB == 0:
		return fmt.Sprintf("%dKB", n/KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ParseSize reads a byte count the way the IOR and IOzone command lines
// write one: plain bytes, or a k, m or g suffix (binary multiples, either
// case), as in "256k", "32m" or "2g". A count past the int64 range is an
// error rather than a wrapped value.
func ParseSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "k"):
		mult, t = KiB, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		mult, t = MiB, t[:len(t)-1]
	case strings.HasSuffix(t, "g"):
		mult, t = GiB, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64", s)
	}
	return n * mult, nil
}
