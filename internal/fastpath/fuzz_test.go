package fastpath_test

import (
	"fmt"
	"reflect"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/disksim"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
	"iophases/internal/replay"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// fuzzInput decodes a fuzz input one byte at a time; reads past its end
// yield zero, so every input decodes to some workload.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// fuzzSpec decodes three bytes into a contention-free spec: configA's one
// I/O node holding a bare disk, RAID0, RAID5 or a JBOD concatenation, an
// optional write cache from 4 MiB (small enough to evict and to fill) to
// 512 MiB, and a server request size.
func fuzzSpec(in *fuzzInput) cluster.Spec {
	s := cluster.ConfigA()
	st := &s.Storage
	dev, cache, req := in.next(), in.next(), in.next()
	disks := 2 + dev>>2%4
	unit := 32 * units.KiB << (dev >> 4 % 4)
	switch dev % 4 {
	case 0:
		st.RAID, st.DisksPerNode = nil, 1
	case 1:
		st.RAID, st.DisksPerNode = &cluster.RAIDSpec{Level: disksim.RAID0, StripeUnit: unit}, disks
	case 2:
		st.RAID, st.DisksPerNode = &cluster.RAIDSpec{Level: disksim.RAID5, StripeUnit: unit}, max(disks, 3)
	case 3:
		st.RAID, st.DisksPerNode = nil, disks
	}
	st.Cache = nil
	if cache%2 == 1 {
		st.Cache = &disksim.CacheParams{
			Capacity: 4 * units.MiB << (cache >> 1 % 8),
			MemBW:    units.GBps(2),
			Chunk:    units.MiB << (cache >> 4 % 3),
		}
	}
	st.ServerRequest = 0
	if req%8 != 0 {
		st.ServerRequest = 64 * units.KiB << (req%8 - 1)
	}
	return s
}

// storage describes a decoded spec's storage side for failure messages.
func storage(spec cluster.Spec) string {
	st := spec.Storage
	s := fmt.Sprintf("%d disk(s), server request %d", st.DisksPerNode, st.ServerRequest)
	if st.RAID != nil {
		s += fmt.Sprintf(", RAID %+v", *st.RAID)
	}
	if st.Cache != nil {
		s += fmt.Sprintf(", cache %+v", *st.Cache)
	}
	return s
}

// fuzzIOR decodes five bytes into single-rank IOR parameters: transfer
// size, chunks per block, segments, the write/read/fsync/random-order
// flags and the shuffle seed.
func fuzzIOR(in *fuzzInput) ior.Params {
	tx, chunks, segs, flags, seed := in.next(), in.next(), in.next(), in.next(), in.next()
	transfer := int64(1+tx%8) * (4 * units.KiB << (tx >> 3 % 9))
	return ior.Params{
		NP: 1, BlockSize: int64(1+chunks%64) * transfer, Transfer: transfer, Segments: 1 + segs%4,
		DoWrite: flags&1 != 0, DoRead: flags&2 != 0, Fsync: flags&4 != 0,
		RandomOrder: flags&8 != 0, Seed: int64(seed),
	}
}

// fuzzPhase decodes a single-rank phase model: repetitions, family
// repetition, offset base, and one to three slots, each a write or a read
// of 0 or 16 KiB–4 MiB with a displacement and skew of 0–3 slot sizes.
func fuzzPhase(in *fuzzInput) *core.PhaseModel {
	rep, fam, base, nops := in.next(), in.next(), in.next(), in.next()
	pm := &core.PhaseModel{NP: 1, Rep: 1 + rep%16, OffsetOK: true, OffsetC: int64(base%32) * units.MiB}
	if fam%4 != 0 {
		pm.FamilyID, pm.FamilyRep = 1, fam%4
	}
	for i := 0; i <= nops%3; i++ {
		kind := in.next()
		var size int64
		if code := kind >> 1 % 10; code != 0 {
			size = 8 * units.KiB << code
		}
		op := core.OpModel{Op: trace.OpWriteAt, Size: size,
			Disp: int64(in.next()%4) * size, Skew: int64(in.next()%4) * size}
		if kind%2 == 1 {
			op.Op = trace.OpReadAt
		}
		pm.Ops = append(pm.Ops, op)
		pm.Weight += int64(pm.Rep) * size
	}
	return pm
}

// FuzzFastPathMatchesDES is differential testing of the closed form against
// the simulation it replaces: whenever the fast path admits a decoded IOR
// run or phase replay, its answer must equal the DES's in every field.
// Each input is priced on two specs back to back, so pooled walker state
// carries over between storage shapes. Seeds under testdata/fuzz encode
// the IOR and phase shapes of the cross-validation tables.
func FuzzFastPathMatchesDES(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		specs := []cluster.Spec{fuzzSpec(&in), fuzzSpec(&in)}
		p := fuzzIOR(&in)
		pm := fuzzPhase(&in)
		m := &core.Model{App: "fuzz", NP: 1, AccessType: "shared"}
		for _, spec := range specs {
			if fast, ok := fastpath.RunIOR(spec, p); ok {
				if des := ior.Run(spec, p); !reflect.DeepEqual(fast, des) {
					t.Fatalf("RunIOR on %s\nparams %+v:\n fast %+v\n  des %+v", storage(spec), p, fast, des)
				}
			}
		}
		for _, spec := range specs {
			if fast, ok := fastpath.ReplayPhase(spec, m, pm); ok {
				des, err := replay.PhaseMode(spec, m, pm, fastpath.ModeOff)
				if err != nil {
					t.Fatalf("DES replay of an admitted phase %+v: %v", pm, err)
				}
				if fast != des.Elapsed {
					t.Fatalf("ReplayPhase on %s\nphase %+v:\n fast %v\n  des %v", storage(spec), pm, fast, des.Elapsed)
				}
			}
		}
	})
}
