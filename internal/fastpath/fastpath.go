// Package fastpath computes IOR runs in closed form when the workload
// provably cannot contend: one rank, one storage target, no fault schedule.
// Under those conditions the discrete-event simulation degenerates into a
// single chain of operations (plus at most one background flusher with
// fully determined completion times), so the virtual clock can be advanced
// arithmetically — same formulas, same stateful head/cache bookkeeping,
// same integer rounding — without building an engine, spawning coroutines
// or scheduling events. Phase-faithful replays (internal/replay) always run
// the DES: none that an experiment or a benchmark workload makes is
// single-rank, so a closed form for them would never be admitted.
//
// Exactness is structural, not approximate: the walker calls the very
// functions the simulated devices call (netsim.LinkParams.PathCost,
// disksim.HeadClock/ArrayClock, disksim.CacheLedger,
// ior.Params.Offset/ChunkOrder), so a formula change in a device is
// automatically a formula change here. Whenever the walker meets a
// situation whose event interleaving it cannot reproduce bit-exactly — a
// virtual-time tie with the flusher, a cache-pressure stall, a read after
// a cached write that no cache drop has cleared — it bails out and the
// caller falls back to the full DES. ModeVerify runs both and panics on
// any divergence; the corpus tests in fastpath_test.go compare against the
// DES for every built-in configuration.
//
// # Sanctioned cost seams
//
// "Same formulas" is machine-enforced: the iovet fpfidelity analyzer
// (DESIGN.md §15) forbids this package from manufacturing costs locally.
// Every units.Duration/units.Bandwidth here must originate from the
// shared seams the DES itself uses —
//
//   - netsim.LinkParams.PathCost: network transfer cost
//   - disksim.HeadClock/ArrayClock OpTime: device service times
//   - fsim meta/stripe accounting (MetaCost, MaxServerRequest, striping)
//   - ior.Params geometry (Offset/ChunkOrder/request sizes)
//   - units.TransferTime / units.BandwidthOf: the shared conversion pair
//
// — and may only be aggregated (summed, compared, subtracted). Raw
// conversions (units.Duration(n)), scaling arithmetic (d*2, b/2),
// constructor calls (units.MBps, units.FromSeconds) and raw cost
// constants (units.Millisecond) are build failures, so a re-derived cost
// expression cannot silently drift from the simulation it must match
// bit-exactly.
package fastpath

import (
	"fmt"
	"sync/atomic"

	"iophases/internal/obs"
)

// Mode selects how callers use the fast path.
type Mode int32

const (
	// ModeDefault resolves to the package-wide default at use time.
	ModeDefault Mode = iota
	// ModeOff always runs the full DES.
	ModeOff
	// ModeOn uses the analytic result when the workload is admissible,
	// falling back to the DES otherwise.
	ModeOn
	// ModeVerify runs both paths and panics if the results differ in any
	// field — the divergence tripwire CI runs the quick suite under.
	ModeVerify
)

// defaultMode is the package-wide default consulted by ModeDefault. The
// fast path is exact (verify-mode checked), so it is on by default.
var defaultMode atomic.Int32

func init() { defaultMode.Store(int32(ModeOn)) }

// SetDefault installs the package-wide default mode. ModeDefault is not a
// valid default (it would self-reference).
func SetDefault(m Mode) {
	if m == ModeDefault {
		panic("fastpath: ModeDefault is not a valid default")
	}
	defaultMode.Store(int32(m))
}

// DefaultMode reports the package-wide default.
func DefaultMode() Mode { return Mode(defaultMode.Load()) }

// Resolve maps ModeDefault to the package default; other modes pass
// through.
func (m Mode) Resolve() Mode {
	if m == ModeDefault {
		return DefaultMode()
	}
	return m
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDefault:
		return "default"
	case ModeOff:
		return "off"
	case ModeOn:
		return "on"
	case ModeVerify:
		return "verify"
	default:
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
}

// ParseMode parses a CLI flag value ("off", "on", "verify").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "on":
		return ModeOn, nil
	case "verify":
		return ModeVerify, nil
	default:
		return ModeDefault, fmt.Errorf("fastpath: mode %q (want off|on|verify)", s)
	}
}

// Counters live on the default registry (not the Hot gate) so hits and
// bailouts are observable without enabling run telemetry — the quick-suite
// acceptance check reads them directly.
var (
	cHits     = obs.Default().Counter("fastpath/hits")
	cBailouts = obs.Default().Counter("fastpath/bailouts")
)

// Stats reports cumulative fast-path outcomes: runs answered analytically
// and runs that bailed to the DES (statically or dynamically).
func Stats() (hits, bailouts int64) {
	return cHits.Value(), cBailouts.Value()
}
