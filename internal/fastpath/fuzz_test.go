package fastpath_test

import (
	"fmt"
	"reflect"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/disksim"
	"iophases/internal/fastpath"
	"iophases/internal/ior"
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

// FuzzFastPathMatchesDES is differential testing of the closed form against
// the simulation it replaces: whenever the fast path admits a decoded IOR
// run, its answer must equal the DES's in every field. Each input is
// priced on two specs back to back, so pooled walker state carries over
// between storage shapes. Seeds under testdata/fuzz encode the IOR shapes
// of the cross-validation table; bytes past the IOR parameters are
// ignored.
func FuzzFastPathMatchesDES(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		specs := []cluster.Spec{fuzzSpec(&in), fuzzSpec(&in)}
		p := fuzzIOR(&in)
		for _, spec := range specs {
			if fast, ok := fastpath.RunIOR(spec, p); ok {
				if des := ior.Run(spec, p); !reflect.DeepEqual(fast, des) {
					t.Fatalf("RunIOR on %s\nparams %+v:\n fast %+v\n  des %+v", storage(spec), p, fast, des)
				}
			}
		}
	})
}
