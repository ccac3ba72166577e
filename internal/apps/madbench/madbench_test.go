package madbench

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/trace"
	"iophases/internal/units"
)

func runTraced(t *testing.T, np int, p Params) *trace.Set {
	t.Helper()
	res := runner.Run(cluster.ConfigA(), np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return Program(sys, p)
	}, runner.Options{Trace: true})
	return res.Set
}

func TestDefaultMatchesPaperScale(t *testing.T) {
	p := Default()
	if p.NBin != 8 || p.RS != 32*units.MiB {
		t.Fatalf("default %+v", p)
	}
	if KPixRS(8, 16) != 32*units.MiB {
		t.Fatalf("KPixRS(8,16) = %d, want 32 MiB (8192²·8/16)", KPixRS(8, 16))
	}
}

func TestOperationSequencePerRank(t *testing.T) {
	p := Default()
	p.RS = units.MiB
	set := runTraced(t, 4, p)
	evs := set.DataEvents(0)
	// S: 8W; W: 2R + 6×(W,R) + 2W; C: 8R → 32 data ops.
	if len(evs) != 32 {
		t.Fatalf("ops = %d, want 32", len(evs))
	}
	var pattern []byte
	for _, ev := range evs {
		if ev.Op.IsWrite() {
			pattern = append(pattern, 'W')
		} else {
			pattern = append(pattern, 'R')
		}
	}
	want := "WWWWWWWW" + "RR" + "WRWRWRWRWRWR" + "WW" + "RRRRRRRR"
	if string(pattern) != want {
		t.Fatalf("op pattern %s,\nwant       %s", pattern, want)
	}
}

func TestOffsetsMatchTableVIII(t *testing.T) {
	p := Default()
	p.RS = units.MiB
	set := runTraced(t, 4, p)
	for rank := 0; rank < 4; rank++ {
		evs := set.DataEvents(rank)
		base := int64(rank) * 8 * units.MiB
		// S writes bins 0..7 sequentially.
		for b := int64(0); b < 8; b++ {
			if evs[b].Offset != base+b*units.MiB {
				t.Fatalf("rank %d S[%d] offset %d", rank, b, evs[b].Offset)
			}
		}
		// Steady state: write bin i, read bin i+2.
		if evs[10].Offset != base || evs[11].Offset != base+2*units.MiB {
			t.Fatalf("rank %d steady state offsets %d/%d", rank, evs[10].Offset, evs[11].Offset)
		}
	}
}

func TestTicksContiguousWithinFunctions(t *testing.T) {
	p := Default()
	p.RS = units.MiB
	set := runTraced(t, 2, p)
	evs := set.DataEvents(0)
	// The 8 S writes must occupy consecutive ticks (no MPI events in
	// between — that is what merges them into one phase of rep 8).
	for i := 1; i < 8; i++ {
		if evs[i].Tick != evs[i-1].Tick+1 {
			t.Fatalf("S writes not tick-contiguous: %d -> %d", evs[i-1].Tick, evs[i].Tick)
		}
	}
	// A gap (the gang barrier) separates S from W.
	if evs[8].Tick == evs[7].Tick+1 {
		t.Fatal("no barrier gap between S and W")
	}
}

func TestTotalBytes(t *testing.T) {
	p := Default()
	w, r := TotalBytes(p, 16)
	if w != 8*units.GiB || r != 8*units.GiB {
		t.Fatalf("volume %d/%d", w, r)
	}
	set := runTraced(t, 4, Params{NBin: 8, RS: units.MiB, FileName: "/m", BusyWork: units.Millisecond})
	gotW, gotR := set.TotalBytes()
	wantW, wantR := TotalBytes(Params{NBin: 8, RS: units.MiB}, 4)
	if gotW != wantW || gotR != wantR {
		t.Fatalf("traced %d/%d, want %d/%d", gotW, gotR, wantW, wantR)
	}
}

func TestMetadataIndividualNonCollective(t *testing.T) {
	p := Default()
	p.RS = units.MiB
	set := runTraced(t, 2, p)
	m := set.FileMetaByID(0)
	if m == nil || m.PointerSet != "individual" || m.Collective || !m.Blocking {
		t.Fatalf("meta %+v", m)
	}
	if m.AccessType != "shared" {
		t.Fatalf("access type %s", m.AccessType)
	}
}

func TestMultiGangVolumeInvariant(t *testing.T) {
	// The same matrices move regardless of gang count.
	single := Default()
	single.RS = units.MiB
	multi := single
	multi.Gangs = 2
	s1 := runTraced(t, 8, single)
	s2 := runTraced(t, 8, multi)
	w1, r1 := s1.TotalBytes()
	w2, r2 := s2.TotalBytes()
	if w1 != w2 || r1 != r2 {
		t.Fatalf("volume changed: %d/%d vs %d/%d", w1, r1, w2, r2)
	}
}

func TestMultiGangStridesAcrossShares(t *testing.T) {
	p := Default()
	p.RS = units.MiB
	p.Gangs = 2 // 8 procs → gangs of 4, each proc covers 2 shares per bin
	set := runTraced(t, 8, p)
	evs := set.DataEvents(1) // rank 1 = gang 0, q=1
	// After the 8 S writes, W's accesses come in share pairs: offsets
	// (2·8+b)·RS and (3·8+b)·RS — a stride of NBin·RS between shares.
	first := evs[8]
	second := evs[9]
	if second.Offset-first.Offset != 8*units.MiB {
		t.Fatalf("share stride %d, want NBin·RS", second.Offset-first.Offset)
	}
	if !first.Op.IsRead() || !second.Op.IsRead() {
		t.Fatalf("prime ops %s %s", first.Op, second.Op)
	}
	// Per-rank op count: 8 S writes + 2·binsPerGang·gangs W ops + ...
	// binsPerGang = 4, gangs (shares) = 2: W = (4 writes + 4 reads)·2 =
	// 16, C = 4·2 = 8 → total 8+16+8 = 32.
	if len(evs) != 32 {
		t.Fatalf("ops %d, want 32", len(evs))
	}
	// Access mode becomes strided in the extracted metadata.
	// (W jumps by NBin·RS between shares.)
}

func TestMultiGangModelStillFivePhaseFamilies(t *testing.T) {
	// The gang run still has the S / W-prime / W-steady / W-drain / C
	// structure; phases multiply by the share loop but group per gang.
	p := Default()
	p.RS = units.MiB
	p.Gangs = 2
	set := runTraced(t, 8, p)
	w, r := set.TotalBytes()
	wantW, wantR := TotalBytes(p, 8)
	if w != wantW || r != wantR {
		t.Fatalf("volume %d/%d want %d/%d", w, r, wantW, wantR)
	}
}

func TestValidateGangs(t *testing.T) {
	p := Default()
	if err := p.Validate(16); err != nil {
		t.Fatal(err)
	}
	p.Gangs = 3 // does not divide np=8 or nbin=8
	if p.Validate(8) == nil {
		t.Fatal("invalid gang count accepted")
	}
	p.Gangs = 4
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.RS = 0
	if bad.Validate(4) == nil {
		t.Fatal("rs=0 accepted")
	}
	// A single gang primes two bins of read-ahead; several gangs clamp it.
	one := Default()
	one.NBin = 1
	if one.Validate(4) == nil {
		t.Fatal("single-gang nbin=1 accepted")
	}
	one.NBin, one.Gangs = 2, 2
	if err := one.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Program(nil, Params{NBin: 0, RS: 0})
}
