// Package madbench implements the I/O skeleton of MADBench2, the cosmology
// benchmark (MADspec / CMB angular power spectrum) used in §IV-A of the
// paper. In I/O mode all calculation and communication is replaced by
// busy-work (the paper runs it exactly so), leaving the out-of-core matrix
// traffic:
//
//	S — build and write NBin component matrices        (S_w)
//	W — read each matrix, manipulate, write it back,   (W_r, W_w)
//	    pipelined two bins ahead (prime 2 reads, steady
//	    state write i / read i+2, drain 2 writes)
//	C — read every matrix once                         (C_r)
//
// Each rank owns a contiguous region of the shared file: bin b of rank p
// lives at (p·NBin + b)·RS. With 16 processes, 8 bins and 32 MiB request
// size this reproduces the five phases of Table VIII, weights 4/1/6/1/4 GB
// and initial offsets idP·8·32MB (± 2·32MB).
package madbench

import (
	"fmt"

	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/units"
)

// Params configure a run.
type Params struct {
	NBin     int            // number of component matrices (paper: 8)
	RS       int64          // per-process request size (paper: 32 MiB at 8KPIX/16p)
	FileName string         // shared data file
	BusyWork units.Duration // busy-work standing in for calculation per bin
	// Gangs selects multi-gang mode (§IV-A): S builds and writes the
	// matrices over all processes, but W and C redistribute them over
	// process subsets — each gang manipulates its share of the bins,
	// and every gang process covers several ranks' S-time shares, so
	// the W/C accesses become strided across the file. 0 or 1 is the
	// single-gang mode of the paper's measured runs. Gangs must divide
	// both np and NBin.
	Gangs int
}

// Default returns the paper's configuration: 8 bins, 32 MiB request size —
// 8KPIX over 16 processes (NPix²·8 bytes / np = 8192²·8/16 = 32 MiB),
// single gang.
func Default() Params {
	return Params{
		NBin:     8,
		RS:       32 * units.MiB,
		FileName: "/madbench2.dat",
		BusyWork: 250 * units.Millisecond,
		Gangs:    1,
	}
}

// Validate checks the parameters against a process count.
func (p Params) Validate(np int) error {
	if p.NBin <= 0 || p.RS <= 0 {
		return fmt.Errorf("madbench: nbin=%d rs=%d", p.NBin, p.RS)
	}
	if p.Gangs <= 1 && p.NBin < 2 {
		return fmt.Errorf("madbench: nbin=%d: the W pipeline reads two bins ahead", p.NBin)
	}
	if p.Gangs > 1 && (np%p.Gangs != 0 || p.NBin%p.Gangs != 0) {
		return fmt.Errorf("madbench: gangs=%d must divide np=%d and nbin=%d",
			p.Gangs, np, p.NBin)
	}
	return nil
}

// KPixRS computes the per-process request size for a pixel count and
// process count: one NPix² matrix of float64 spread over np ranks.
func KPixRS(kpix, np int) int64 {
	npix := int64(kpix) * 1024
	return npix * npix * 8 / int64(np)
}

// Program returns the per-rank program; run it with mpi.World.Run.
func Program(sys *mpiio.System, p Params) func(r *mpi.Rank) {
	if p.NBin <= 0 || p.RS <= 0 {
		panic("madbench: bad params")
	}
	if p.Gangs > 1 {
		return multiGangProgram(sys, p)
	}
	return func(r *mpi.Rank) {
		if r.ID() == 0 {
			sys.MarkStart(r)
		}
		f := sys.Open(r, p.FileName, mpiio.Shared)
		base := int64(r.ID()) * int64(p.NBin) * p.RS
		bin := func(b int64) int64 { return base + b*p.RS }

		// S: build (busy-work) and write each bin. The writes are
		// back-to-back MPI-IO calls — one phase of rep NBin.
		f.Seek(r, bin(0))
		for b := 0; b < p.NBin; b++ {
			r.Compute(p.BusyWork)
			f.Write(r, p.RS) // sequential: pointer advances by RS
		}
		r.Barrier() // gang synchronization between functions

		// W: pipelined read-manipulate-write, two bins of read-ahead.
		f.Seek(r, bin(0))
		f.Read(r, p.RS) // prime bins 0 and 1
		f.Read(r, p.RS)
		for i := int64(0); i < int64(p.NBin-2); i++ {
			r.Compute(p.BusyWork)
			f.Seek(r, bin(i))
			f.Write(r, p.RS) // write back bin i
			f.Seek(r, bin(i+2))
			f.Read(r, p.RS) // prefetch bin i+2
		}
		r.Compute(p.BusyWork)
		f.Seek(r, bin(int64(p.NBin-2)))
		f.Write(r, p.RS) // drain the last two bins
		f.Write(r, p.RS)
		r.Barrier()

		// C: read every bin once.
		f.Seek(r, bin(0))
		for b := 0; b < p.NBin; b++ {
			r.Compute(p.BusyWork)
			f.Read(r, p.RS)
		}
		f.Close(r)
	}
}

// multiGangProgram is the multi-gang variant: W and C run on gangs of
// np/Gangs processes, each gang owning NBin/Gangs matrices. A gang process
// covers Gangs consecutive ranks' S-time shares of each owned bin, so its
// W/C accesses stride through the file in RS pieces NBin·RS apart.
func multiGangProgram(sys *mpiio.System, p Params) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		np := r.Size()
		if np%p.Gangs != 0 || p.NBin%p.Gangs != 0 {
			panic(fmt.Sprintf("madbench: gangs=%d must divide np=%d and nbin=%d",
				p.Gangs, np, p.NBin))
		}
		if r.ID() == 0 {
			sys.MarkStart(r)
		}
		f := sys.Open(r, p.FileName, mpiio.Shared)
		gangSize := np / p.Gangs
		gang := r.ID() / gangSize
		q := r.ID() % gangSize // position within the gang
		binsPerGang := p.NBin / p.Gangs

		// S: identical to single gang — all processes write all bins.
		base := int64(r.ID()) * int64(p.NBin) * p.RS
		f.Seek(r, base)
		for b := 0; b < p.NBin; b++ {
			r.Compute(p.BusyWork)
			f.Write(r, p.RS)
		}
		r.Barrier() // gang redistribution

		// shareOffsets lists the file regions gang process q covers for
		// an owned bin: the S-time shares of ranks q·Gangs..(q+1)·Gangs−1.
		accessBin := func(b int64, write bool) {
			for s := 0; s < p.Gangs; s++ {
				share := int64(q*p.Gangs + s)
				off := (share*int64(p.NBin) + b) * p.RS
				f.Seek(r, off)
				if write {
					f.Write(r, p.RS)
				} else {
					f.Read(r, p.RS)
				}
			}
		}

		// W: the gang's bins, pipelined two ahead as in single gang.
		ownedBin := func(i int) int64 { return int64(gang*binsPerGang + i) }
		prime := 2
		if prime > binsPerGang {
			prime = binsPerGang
		}
		for i := 0; i < prime; i++ {
			accessBin(ownedBin(i), false)
		}
		for i := 0; i < binsPerGang-prime; i++ {
			r.Compute(p.BusyWork)
			accessBin(ownedBin(i), true)
			accessBin(ownedBin(i+prime), false)
		}
		for i := binsPerGang - prime; i < binsPerGang; i++ {
			r.Compute(p.BusyWork)
			accessBin(ownedBin(i), true)
		}
		r.Barrier()

		// C: read the gang's bins once.
		for i := 0; i < binsPerGang; i++ {
			r.Compute(p.BusyWork)
			accessBin(ownedBin(i), false)
		}
		f.Close(r)
	}
}

// TotalBytes reports the volume one run moves: writes (S writes NBin, W
// writes NBin) and reads (W reads NBin, C reads NBin) per rank. The totals
// are gang-invariant: multi-gang redistributes the same matrices over
// fewer processes with proportionally more data each.
func TotalBytes(p Params, np int) (written, read int64) {
	perRank := int64(p.NBin) * p.RS
	return 2 * perRank * int64(np), 2 * perRank * int64(np)
}
