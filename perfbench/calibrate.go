package main

import (
	"encoding/binary"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared hosts whose speed for the same code moves
// from minute to minute: on a 2-vCPU cloud VM, one binary on one seed ran
// up to 2× slower in one window than in another while the CPU steal it
// reported stayed under 1 %. Neighbours on the same cores slow every piece
// of code alike, so the benchmark measures the host's speed in the same run
// with a fixed kernel that uses nothing of the program, and scales every
// time it reports to the kernel's reference time. A change to the program
// moves the scaled times; a slow host window does not.
//
// The kernel runs on every processor at once (GOMAXPROCS copies, each on its
// own data), because the workloads do: the sweep pool keeps both vCPUs of a
// 2-vCPU host busy. Its data fits in the L1 and L2 caches, so it measures
// the processors' speed rather than memory contention, which the workloads
// barely feel. Over ten seeds, scaling cut the IQR/median of whatif-fast's
// op_ms from 0.31 to 0.06 and of select-cold's from 0.11 to 0.06 (DESIGN.md
// has every workload). Two variants did not follow the workloads and were
// dropped: the kernel on one processor only, and a kernel chasing pointers
// through 1 MiB per processor, whose time moved 12 % while select-cold's
// held within 3 %.

// calibRef is one kernel run's time at reference speed: about its median on
// a quiet 2-vCPU x86-64 VM. Scaled times are what the op would take on a
// host where the kernel takes calibRef.
const calibRef = 700 * time.Microsecond

const (
	// calibEvery is how often the timed loop pauses for a calibration
	// block; calibBlock is how many kernel rounds one block times.
	calibEvery = 100 * time.Millisecond
	calibBlock = 3
)

// calibrator times kernel rounds in blocks spread over a run.
type calibrator struct {
	kernels []*kernel // one per processor
	durs    []time.Duration
	done    chan struct{}
	samples []time.Duration
	spent   time.Duration // wall time spent calibrating
}

func newCalibrator() *calibrator {
	c := &calibrator{done: make(chan struct{})}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.kernels = append(c.kernels, newKernel())
	}
	c.durs = make([]time.Duration, len(c.kernels))
	return c
}

// kernel is the fixed work's data; run is allocation-free.
type kernel struct {
	next    []uint32 // one cycle through every slot, to chase
	heap    []uint64
	varints []byte
	table   map[uint64]uint64
	sink    uint64
}

func newKernel() *kernel {
	k := &kernel{}
	x := uint64(0x9e3779b97f4a7c15)
	lcg := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 17
	}
	// Sattolo's shuffle leaves a single cycle through every slot, so each
	// step depends on the last.
	const slots = 1 << 12
	k.next = make([]uint32, slots)
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := slots - 1; i > 0; i-- {
		j := int(lcg() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	k.heap = make([]uint64, 0, 4096)
	for i := 0; i < 8192; i++ {
		k.varints = binary.AppendUvarint(k.varints, lcg()%(1<<(7*(1+i%4))))
	}
	k.table = make(map[uint64]uint64, 4096)
	for i := uint64(0); i < 4096; i++ {
		k.table[i*0x9e3779b97f4a7c15] = i
	}
	return k
}

// run is a dependent pointer chase, pushes and pops on a binary heap (the
// shape of a discrete-event queue), varint decoding (the shape of trace
// decoding) and map lookups (the shape of the caches).
func (k *kernel) run() {
	var acc uint64
	p := uint32(0)
	for i := 0; i < 1<<14; i++ {
		p = k.next[p]
	}
	acc += uint64(p)
	h := k.heap[:0]
	x := uint64(12345)
	for i := 0; i < 4096; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h = heapPush(h, x>>20)
	}
	for len(h) > 0 {
		var top uint64
		top, h = heapPop(h)
		acc ^= top
	}
	k.heap = h
	for buf := k.varints; len(buf) > 0; {
		v, n := binary.Uvarint(buf)
		acc += v
		buf = buf[n:]
	}
	for i := uint64(0); i < 8192; i++ {
		acc += k.table[(i%6000)*0x9e3779b97f4a7c15]
	}
	k.sink += acc
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < n && h[l] < h[small] {
			small = l
		}
		if l+1 < n && h[l+1] < h[small] {
			small = l + 1
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}

// round runs every kernel at once, one per processor, and returns their
// mean run time. Each kernel waits at a barrier until all are on a
// processor and times only its own run, so how long the runtime takes to
// wake an idle processor is not part of the sample.
func (c *calibrator) round() time.Duration {
	var ready atomic.Int32
	n := int32(len(c.kernels))
	run := func(i int) {
		ready.Add(1)
		for ready.Load() < n {
		}
		t0 := time.Now()
		c.kernels[i].run()
		c.durs[i] = time.Since(t0)
	}
	for i := 1; i < len(c.kernels); i++ {
		go func(i int) {
			run(i)
			c.done <- struct{}{}
		}(i)
	}
	run(0)
	var sum time.Duration
	for i := range c.kernels {
		if i > 0 {
			<-c.done
		}
	}
	for _, d := range c.durs {
		sum += d
	}
	return sum / time.Duration(len(c.durs))
}

// block times calibBlock rounds after one untimed round, which brings the
// kernels' data back into cache after the op evicted it. Collection is off
// for the block, and turning it off waits for a running mark phase to end,
// so the program's garbage is not collected beside the samples. The samples
// then measure the host, not how much memory the program used.
func (c *calibrator) block() {
	t0 := time.Now()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c.round()
	for i := 0; i < calibBlock; i++ {
		c.samples = append(c.samples, c.round())
	}
	c.spent += time.Since(t0)
}

// slowdown is the median kernel time over the reference time: above 1 the
// host ran slower than reference speed.
func (c *calibrator) slowdown() float64 {
	return median(sortedMillis(c.samples)) / (float64(calibRef) / float64(time.Millisecond))
}
