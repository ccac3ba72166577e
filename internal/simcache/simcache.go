// Package simcache memoizes replay simulations behind a content-addressed
// key. The paper's analysis stage replays application phases with IOR
// (Eq. 1–2), and the same (configuration, IOR parameters) pair recurs
// heavily: Tables IX/X/XII/XIII re-characterize identical phases, and
// BT-IO's fifty write rounds collapse to one distinct replay. Because every
// simulation is deterministic — identical inputs produce bit-identical
// results — a cache hit can return the stored result and skip the whole
// cluster build and event loop.
//
// A key is an exact binary encoding of the whole input value —
// (cluster.Spec, ior.Params) for a replay, the coexec.Spec for a
// co-execution, the spec and the two sweep sizes for a device peak — and
// the encoding is the key itself: no digest is taken. No field is
// excluded. Even names reach the result: Spec.Name prefixes every link
// name, which a fault's Match selects on, and co-execution results carry
// their apps' names. So two inputs share an entry only when they are
// equal. Traced runs (Params.TraceRun) bypass the cache: their value is
// the trace, which is per-run mutable state.
//
// A key is a domain prefix ("ior/", "coexec/" or "iozone-peak/") and
// then the encoding of each input:
//
//   - a pointer is a 0 (nil) or 1 tag byte, then its target's encoding, so
//     two specs that describe the same hardware through different pointers
//     encode equally;
//   - a struct is its fields in declaration order, with no names;
//   - a slice is its length as a uvarint, then its elements in order;
//   - a string is its length as a uvarint, then its bytes;
//   - a bool is one byte, an integer a varint (uvarint if unsigned), and a
//     float its eight IEEE-754 bytes (math.Float64bits);
//   - any other kind panics, naming the type.
//
// No value is formatted, so no String method can round a field into the
// key: a latency 300 ns longer or a bandwidth 1000 B/s higher is a
// different key. The encoding is injective without field names because
// every input's static type is fixed, and so is the layout it implies.
// By induction on that type, no value's encoding is a proper prefix of
// another's: tags, varints and fixed-width scalars are prefix-free on
// their own, a slice or string states its length before its elements,
// and a concatenation of prefix-free codes whose order the type fixes is
// prefix-free again. A prefix-free code is injective, so equal keys mean
// values equal bit for bit, and the domain prefixes keep the three kinds
// of key apart. A digest would add only a collision argument.
//
// A key costs its length in memory. A preset spec encodes in 148–189
// bytes and a replay's parameters in 20 more, so a replay key is 172–213
// bytes. A co-execution key holds its apps' whole models and grows with
// them: two four-rank MADBench2 apps on configA take 1.2 KB. So the
// DefaultCapacity (4096) kept keys hold about 5 MB even if every one were
// a co-execution key of that size, and under 1 MB of replay keys.
//
// The cache is one Memo, safe for concurrent use and deduplicating
// in-flight work: when several sweep workers miss on one key
// simultaneously, a single simulation runs and the rest wait for its
// result. iod's response cache is another Memo.
package simcache

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"iophases/internal/cluster"
	"iophases/internal/coexec"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
	"iophases/internal/iozone"
	"iophases/internal/obs"
	"iophases/internal/units"
)

// Fingerprint is the content-addressed replay key: "ior/", the encoding
// of spec and the encoding of p. It holds nothing of the execution mode,
// so a result cached with the fast path off is reused with it on, and
// vice versa, which is sound because verify mode pins the two paths to
// bit-identical results. Whether the fast path admits a run is a pure
// function of (spec, p), which the key already encodes in full, and the
// cache lives for one process, so no entry can outlive a revision of the
// admission rule. A Target keys many replays on one spec with the same
// bytes, encoding the spec once.
func Fingerprint(spec cluster.Spec, p ior.Params) string {
	b := make([]byte, 0, keyBufSize)
	b = append(b, "ior/"...)
	b = appendValue(b, reflect.ValueOf(spec))
	return string(appendValue(b, reflect.ValueOf(p)))
}

// keyBufSize covers the encoding of a preset spec and its replay
// parameters, so a replay key is encoded in a buffer on the stack and
// copied once into the key string. Larger inputs, such as co-execution
// specs, grow the buffer on the heap.
const keyBufSize = 512

// appendValue appends the exact binary encoding of v (see the package
// doc) to b. It panics on a kind the encoding does not cover, naming the
// type, so a new field of such a kind fails every key test at once
// instead of keying loosely.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	}
	panic("simcache: no key encoding for type " + v.Type().String())
}

// DefaultCapacity bounds the cache to a generous working set: an entry is
// one IOR Result (or peak pair) plus its key, so even the full experiment
// suite stays well under this; the cap exists so a long-lived server
// sweeping an unbounded parameter space cannot grow without limit.
const DefaultCapacity = 4096

// Cache traffic counters live on the obs default registry — they are part of
// the package's API (Stats, the -v summary) regardless of telemetry flags,
// and registering them there puts them in every -metrics dump for free. The
// cost is one atomic add per lookup.
var (
	cHits      = obs.Default().Counter("simcache/hits")
	cMisses    = obs.Default().Counter("simcache/misses")
	cBypass    = obs.Default().Counter("simcache/bypass")
	cSFWaits   = obs.Default().Counter("simcache/singleflight_waits")
	cEvictions = obs.Default().Counter("simcache/evictions")

	// Occupancy gauges: a dashboard reading /metrics can tell "evictions
	// because the working set exceeds the cap" from "cache barely used"
	// without calling Len in-process.
	gSize     = obs.Default().Gauge("simcache/size")
	gCapacity = obs.Default().Gauge("simcache/capacity")

	// cache holds every replay, co-execution and device-peak result; a
	// lookup that joins a running simulation is a singleflight wait.
	cache = NewMemo[any](DefaultCapacity, cSFWaits, cEvictions, gSize)
)

func init() { gCapacity.Set(DefaultCapacity) }

// recall returns key's result, running fn on a miss, and counts the
// lookup as a hit or a miss. Its callers keep every result. Do's error is
// dropped because a background context never ends.
func recall(key string, fn func() (any, bool)) any {
	v, out, _ := cache.Do(context.Background(), key, fn)
	if out == Computed {
		cMisses.Inc()
	} else {
		cHits.Inc()
	}
	return v
}

// RunIOR is a memoized ior.Run under the package-default fast-path mode: a
// cache hit skips both the cluster build and the whole discrete-event
// simulation. Traced runs are never cached.
func RunIOR(spec cluster.Spec, p ior.Params) ior.Result {
	return RunIORMode(spec, p, fastpath.ModeDefault)
}

// RunIORMode is RunIOR with an explicit fast-path mode. The mode selects
// how a missing result is computed — it is not part of the key, which is
// sound because every mode yields the bit-identical Result (ModeVerify
// enforces exactly that by running both paths and panicking on any
// difference). It is a Target's RunIOR for a single replay.
func RunIORMode(spec cluster.Spec, p ior.Params, mode fastpath.Mode) ior.Result {
	t := NewTarget(spec)
	return t.RunIOR(p, mode)
}

// Target is one configuration ready to run many memoized replays: its
// spec and the prefix every replay key on it starts with ("ior/" and
// the encoding of the spec), encoded once. A what-if fan-out prices
// every phase of a model on each configuration, so each replay key then
// encodes only its IOR parameters. The spec, pointer targets included,
// must not change while the Target is in use.
type Target struct {
	spec   cluster.Spec
	prefix string
}

// NewTarget encodes spec's replay-key prefix.
func NewTarget(spec cluster.Spec) Target {
	b := make([]byte, 0, keyBufSize)
	b = append(b, "ior/"...)
	return Target{spec: spec, prefix: string(appendValue(b, reflect.ValueOf(spec)))}
}

// key is Fingerprint(t.spec, p): the prefix, then the encoding of p.
func (t *Target) key(p ior.Params) string {
	b := make([]byte, 0, keyBufSize)
	b = append(b, t.prefix...)
	return string(appendValue(b, reflect.ValueOf(p)))
}

// RunIOR is RunIORMode on the target's spec.
func (t *Target) RunIOR(p ior.Params, mode fastpath.Mode) ior.Result {
	if p.TraceRun {
		cBypass.Inc()
		return ior.Run(t.spec, p)
	}
	return recall(t.key(p), func() (any, bool) {
		return computeIOR(&t.spec, p, mode), true
	}).(ior.Result)
}

// computeIOR resolves the mode and runs the fast path, the DES, or both.
func computeIOR(spec *cluster.Spec, p ior.Params, mode fastpath.Mode) ior.Result {
	switch mode.Resolve() {
	case fastpath.ModeOn:
		if res, ok := fastpath.RunIOROn(spec, p); ok {
			return res
		}
		return ior.Run(*spec, p)
	case fastpath.ModeVerify:
		fast, ok := fastpath.RunIOROn(spec, p)
		des := ior.Run(*spec, p)
		if ok && !reflect.DeepEqual(fast, des) {
			panic(fmt.Sprintf("fastpath: divergence on %s %+v:\n fast %+v\n  des %+v",
				spec.Name, p, fast, des))
		}
		return des
	default:
		return ior.Run(*spec, p)
	}
}

// FingerprintCoexec is the content-addressed key for a co-execution spec:
// "coexec/" and the encoding of the whole spec — the shared cluster, then
// each application in order, models included, so the key grows with
// them. App order is part of the key, because it fixes core allocation
// and launch order.
func FingerprintCoexec(spec coexec.Spec) string {
	b := make([]byte, 0, keyBufSize)
	b = append(b, "coexec/"...)
	return string(appendValue(b, reflect.ValueOf(spec)))
}

// coexecSlot stores a completed co-execution (result and error together,
// so failed validations are never cached as results).
type coexecSlot struct {
	res *coexec.Result
	err error
}

// RunCoexec is a memoized coexec.Run: offset sweeps revisit the same
// (cluster, apps, offsets) points — every ordering probe at offset 0, the
// co-start baseline of each grid — and a hit skips the whole shared-
// cluster simulation. The returned Result is shared between every caller
// that hits the same key: treat it as immutable. Invalid specs are
// rejected before touching the cache.
func RunCoexec(spec coexec.Spec) (*coexec.Result, error) {
	if err := coexec.Validate(spec); err != nil {
		return nil, err
	}
	s := recall(FingerprintCoexec(spec), func() (any, bool) {
		var s coexecSlot
		s.res, s.err = coexec.Run(spec)
		return s, true
	}).(coexecSlot)
	return s.res, s.err
}

// peaks is the cached product of iozone.PeakOfConfig.
type peaks struct {
	write, read units.Bandwidth
}

// PeakBandwidth is a memoized iozone.PeakOfConfig (Eq. 3–4): the device
// peak of a configuration is re-derived by every utilization table and
// usage computation, but only depends on the spec and the sweep sizes.
func PeakBandwidth(spec cluster.Spec, fileSize, requestSize int64) (write, read units.Bandwidth) {
	p := recall(peakKey(spec, fileSize, requestSize), func() (any, bool) {
		var p peaks
		p.write, p.read = iozone.PeakOfConfig(spec, fileSize, requestSize)
		return p, true
	}).(peaks)
	return p.write, p.read
}

// peakKey is PeakBandwidth's key: "iozone-peak/", the encoding of spec
// and the two sweep sizes as varints.
func peakKey(spec cluster.Spec, fileSize, requestSize int64) string {
	b := make([]byte, 0, keyBufSize)
	b = append(b, "iozone-peak/"...)
	b = appendValue(b, reflect.ValueOf(spec))
	b = binary.AppendVarint(b, fileSize)
	return string(binary.AppendVarint(b, requestSize))
}

// Stats reports cache traffic since process start (or the last Reset):
// hits, misses, and traced runs that bypassed the cache.
func Stats() (hit, miss, bypass uint64) {
	return uint64(cHits.Value()), uint64(cMisses.Value()), uint64(cBypass.Value())
}

// SingleflightWaits reports how many hits landed on an entry whose
// simulation was still running on another goroutine — the lookups that
// blocked instead of returning instantly.
func SingleflightWaits() uint64 { return uint64(cSFWaits.Value()) }

// Evictions reports how many completed entries the LRU cap has dropped.
func Evictions() uint64 { return uint64(cEvictions.Value()) }

// Len reports the number of cached simulation results, running ones
// included.
func Len() int { return cache.Len() }

// Reset drops every cached result and zeroes the counters (tests,
// long-lived servers reclaiming memory).
func Reset() {
	cache.Reset()
	cHits.Reset()
	cMisses.Reset()
	cBypass.Reset()
	cSFWaits.Reset()
	cEvictions.Reset()
}
