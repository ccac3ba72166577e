// Package iozone re-implements the IOzone filesystem benchmark at the
// I/O-device level, with the parameter surface of Table IV: file size -s,
// request size -y/-r, and the access patterns sequential (-i0 -i1), strided
// (-i5) and random (-i2). The paper runs IOzone directly on each I/O
// node's devices to obtain the peak bandwidth BW_PK of Eq. 3–4 — the
// ideal, network-free device ceiling that SystemUsage (Eq. 5) divides by.
package iozone

import (
	"fmt"
	"math"
	"math/rand"

	"iophases/internal/cluster"
	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/units"
)

// Pattern is an IOzone access pattern.
type Pattern string

// Supported patterns (Table IV).
const (
	Sequential Pattern = "sequential" // -i 0 -i 1
	Strided    Pattern = "strided"    // -i 0 -i 5
	Random     Pattern = "random"     // -i 0 -i 2
)

// Params configure one IOzone run on one device.
type Params struct {
	FileSize    int64   // -s (paper rule: ≥ 2× node RAM to defeat caches)
	RequestSize int64   // -y
	Pattern     Pattern // access mode
	StrideCount int64   // -i5 stride = StrideCount × RequestSize
	Seed        int64   // deterministic offset shuffle for Random
}

// MaxPassRequests bounds one pass's request count s/y, the bound
// ior.MaxPassTransfers sets for IOR. A pass holds its offsets in memory
// and the simulation runs every request, so an unbounded count can
// exhaust memory (s 2g at y 1 is 2^31 offsets) or run for hours. The
// largest pass experiments, iocharz and iod make is 16,384 requests. A
// sequential run at the cap on configA (s 16g, y 4k, a write then a read
// pass) simulates in 9.8 s on a 2-vCPU host.
const MaxPassRequests = 1 << 22

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.FileSize <= 0 || p.RequestSize <= 0 {
		return fmt.Errorf("iozone: s=%d y=%d", p.FileSize, p.RequestSize)
	}
	if p.FileSize%p.RequestSize != 0 {
		return fmt.Errorf("iozone: file size %d not a multiple of request %d", p.FileSize, p.RequestSize)
	}
	if n := p.FileSize / p.RequestSize; n > MaxPassRequests {
		return fmt.Errorf("iozone: s/y=%d requests exceed MaxPassRequests (%d)", n, MaxPassRequests)
	}
	switch p.Pattern {
	case Sequential, Strided, Random:
	default:
		return fmt.Errorf("iozone: pattern %q", p.Pattern)
	}
	if p.Pattern == Strided && p.StrideCount < 2 {
		return fmt.Errorf("iozone: strided needs StrideCount >= 2")
	}
	return nil
}

// Result carries the Table V metrics for one run.
type Result struct {
	Params    Params
	WriteTime units.Duration
	ReadTime  units.Duration
	WriteBW   units.Bandwidth
	ReadBW    units.Bandwidth
	IOPSw     float64
	IOPSr     float64
}

// offsets generates the request offsets for the pattern.
func (p Params) offsets() []int64 {
	n := p.FileSize / p.RequestSize
	out := make([]int64, 0, n)
	switch p.Pattern {
	case Sequential:
		for i := int64(0); i < n; i++ {
			out = append(out, i*p.RequestSize)
		}
	case Strided:
		// Visit offset 0, S, 2S… wrapping with a phase shift until
		// every block is touched once (S = StrideCount·RequestSize).
		stride := p.StrideCount * p.RequestSize
		visited := int64(0)
		for phase := int64(0); phase < p.StrideCount && visited < n; phase++ {
			for off := phase * p.RequestSize; off < p.FileSize && visited < n; off += stride {
				out = append(out, off)
				visited++
			}
		}
	case Random:
		for i := int64(0); i < n; i++ {
			out = append(out, i*p.RequestSize)
		}
		rng := rand.New(rand.NewSource(p.Seed + 1))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// RunOnDevice executes the write pass then the read pass against a device
// on the given engine (the device must be otherwise idle). Caches wrapped
// around the device are measured as-is — matching real IOzone, whose
// writes on an async mount land in the page cache; the paper's FZ ≥ 2·RAM
// rule is what forces the sustained rate to show.
func RunOnDevice(eng *des.Engine, dev disksim.Device, p Params) Result {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	res := Result{Params: p}
	offs := p.offsets()
	eng.Spawn("iozone", func(proc *des.Proc) {
		start := proc.Now()
		for _, off := range offs {
			dev.Write(proc, off, p.RequestSize)
		}
		if c, ok := dev.(*disksim.WriteCache); ok {
			c.Drain(proc) // IOzone's fsync before timing stops
		}
		res.WriteTime = proc.Now() - start
		start = proc.Now()
		for _, off := range offs {
			dev.Read(proc, off, p.RequestSize)
		}
		res.ReadTime = proc.Now() - start
	})
	eng.Run()
	res.WriteBW = units.BandwidthOf(p.FileSize, res.WriteTime)
	res.ReadBW = units.BandwidthOf(p.FileSize, res.ReadTime)
	if s := res.WriteTime.Seconds(); s > 0 {
		res.IOPSw = float64(len(offs)) / s
	}
	if s := res.ReadTime.Seconds(); s > 0 {
		res.IOPSr = float64(len(offs)) / s
	}
	return res
}

// Sweep runs a set of patterns and request sizes on a device and returns
// all results — the exhaustive characterization of the paper's Table IV.
func Sweep(eng *des.Engine, dev disksim.Device, fileSize int64, requestSizes []int64) []Result {
	var out []Result
	for _, rs := range requestSizes {
		for _, pat := range []Pattern{Sequential, Strided, Random} {
			p := Params{FileSize: fileSize, RequestSize: rs, Pattern: pat, StrideCount: 4}
			if fileSize%rs != 0 {
				continue
			}
			out = append(out, RunOnDevice(eng, dev, p))
		}
	}
	return out
}

// PeakParams reports the sequential pass PeakOfConfig runs on each I/O
// node (its strided pass differs only in Pattern) for the requested
// sizes: the file raised to four times the configuration's write cache,
// the paper's FZ ≥ 2·RAM rule, so that the sustained device rate rather
// than the cache is measured, then rounded up to whole requests. Sizes
// that are not positive, and a pass Validate refuses, are errors.
func PeakParams(spec cluster.Spec, fileSize, requestSize int64) (Params, error) {
	if fileSize <= 0 || requestSize <= 0 {
		return Params{}, fmt.Errorf("iozone: s=%d y=%d", fileSize, requestSize)
	}
	if c := spec.Storage.Cache; c != nil && fileSize < 4*c.Capacity {
		fileSize = 4 * c.Capacity
	}
	if r := fileSize % requestSize; r != 0 {
		if fileSize > math.MaxInt64-(requestSize-r) {
			return Params{}, fmt.Errorf("iozone: s=%d rounded up to whole y=%d requests overflows int64", fileSize, requestSize)
		}
		fileSize += requestSize - r
	}
	p := Params{FileSize: fileSize, RequestSize: requestSize, Pattern: Sequential, StrideCount: 4}
	return p, p.Validate()
}

// PeakOfConfig measures BW_PK for a cluster configuration per Eq. 3–4: run
// IOzone on every I/O node's device, take each node's maximum over
// patterns, and sum across nodes (parallel filesystems) — the ideal case
// "where I/O devices are working in parallel without influence of other
// components". A fresh cluster is built per device so runs do not share
// state. Sizes PeakParams refuses panic: callers with outside input check
// them there first.
func PeakOfConfig(spec cluster.Spec, fileSize, requestSize int64) (write, read units.Bandwidth) {
	p, err := PeakParams(spec, fileSize, requestSize)
	if err != nil {
		panic(err)
	}
	nio := spec.Storage.IONodes
	for i := 0; i < nio; i++ {
		var bestW, bestR units.Bandwidth
		for _, pat := range []Pattern{Sequential, Strided} {
			c := cluster.Build(spec)
			p.Pattern = pat
			r := RunOnDevice(c.Eng, c.IODevice(i), p)
			if r.WriteBW > bestW {
				bestW = r.WriteBW
			}
			if r.ReadBW > bestR {
				bestR = r.ReadBW
			}
		}
		write += bestW
		read += bestR
	}
	return write, read
}
