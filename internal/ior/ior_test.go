package ior

import (
	"math"
	"strings"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/trace"
	"iophases/internal/units"
)

func smallParams() Params {
	return Params{
		NP:        4,
		BlockSize: 16 * units.MiB,
		Transfer:  4 * units.MiB,
		Segments:  1,
		DoWrite:   true,
		DoRead:    true,
	}
}

func TestValidate(t *testing.T) {
	good := smallParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BlockSize = 10 * units.MiB // not a multiple of transfer
	if bad.Validate() == nil {
		t.Fatal("misaligned block accepted")
	}
	bad = good
	bad.DoWrite, bad.DoRead = false, false
	if bad.Validate() == nil {
		t.Fatal("no-op run accepted")
	}
	bad = good
	bad.NP = 0
	if bad.Validate() == nil {
		t.Fatal("np=0 accepted")
	}
}

// TestValidateRejectsExtentOverflow pins that Validate refuses a file
// extent b·np·s past int64, whose offsets would wrap negative mid-run,
// and that an extent which fits int64 but not MaxPassBytes, up to the
// largest int64 exactly, is refused by the volume cap instead.
func TestValidateRejectsExtentOverflow(t *testing.T) {
	const overflow, volume = "overflows int64", "exceeds MaxPassBytes"
	cases := []struct {
		b, t  int64
		np, s int
		want  string
	}{
		{1 << 62, 1 << 62, 4, 1, overflow},             // 2^64 wraps to 0
		{1 << 62, 1 << 62, 2, 1, overflow},             // 2^63 wraps negative
		{1 << 40, 1 << 20, 1 << 10, 1 << 14, overflow}, // overflow in the segments
		{1 << 61, 1 << 61, 2, 2, overflow},
		{1 << 61, 1 << 61, 2, 1, volume},
		{math.MaxInt64, math.MaxInt64, 1, 1, volume},
		{math.MaxInt64 / 7, math.MaxInt64 / 7, 7, 1, volume},
		{math.MaxInt64/7 + 1, math.MaxInt64/7 + 1, 7, 1, overflow},
	}
	for _, tc := range cases {
		p := Params{NP: tc.np, BlockSize: tc.b, Transfer: tc.t, Segments: tc.s, DoWrite: true}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("b=%d np=%d s=%d: Validate() = %v, want an error naming %q", tc.b, tc.np, tc.s, err, tc.want)
		}
	}
}

// TestValidatePassCaps pins the per-pass caps: a pass at MaxPassBytes or
// at MaxPassTransfers is accepted, and one step past either is refused
// with an error naming the cap, however b, np and s share the product.
func TestValidatePassCaps(t *testing.T) {
	const volume, transfers = "exceeds MaxPassBytes", "exceed MaxPassTransfers"
	cases := []struct {
		b, t  int64
		np, s int
		want  string // "" = accepted
	}{
		{MaxPassBytes, MaxPassBytes, 1, 1, ""},
		{MaxPassBytes / 4, 256 * units.MiB, 4, 1, ""},
		{MaxPassBytes/4 + units.MiB, units.MiB, 4, 1, volume},
		{MaxPassBytes / 16, 256 * units.KiB, 2, 8, ""}, // both caps exactly
		{MaxPassBytes/16 + 256*units.KiB, 256 * units.KiB, 2, 8, volume},
		{MaxPassBytes + 1, MaxPassBytes + 1, 1, 1, volume},
		{1, 1, MaxPassTransfers, 1, ""},
		{1, 1, MaxPassTransfers + 1, 1, transfers},
		{4 * units.GiB, 4 * units.KiB, 4, 1, ""},
		{4*units.GiB + 4*units.KiB, 4 * units.KiB, 4, 1, transfers},
		{4 * units.KiB, 4 * units.KiB, 1 << 11, 1<<11 + 1, transfers},
	}
	for _, tc := range cases {
		p := Params{NP: tc.np, BlockSize: tc.b, Transfer: tc.t, Segments: tc.s, DoWrite: true}
		err := p.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("b=%d t=%d np=%d s=%d: rejected: %v", tc.b, tc.t, tc.np, tc.s, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("b=%d t=%d np=%d s=%d: Validate() = %v, want an error naming %q", tc.b, tc.t, tc.np, tc.s, err, tc.want)
		}
	}
}

func TestAggregateBytes(t *testing.T) {
	p := smallParams()
	p.Segments = 3
	if got := p.AggregateBytes(); got != 3*4*16*units.MiB {
		t.Fatalf("aggregate = %d", got)
	}
}

func TestOffsetLayouts(t *testing.T) {
	p := smallParams()
	// Sequential (segmented) layout: rank blocks contiguous.
	if off := p.Offset(1, 0, 2); off != 16*units.MiB+2*4*units.MiB {
		t.Fatalf("seq offset = %d", off)
	}
	if off := p.Offset(0, 1, 0); off != 4*16*units.MiB {
		t.Fatalf("segment base = %d", off)
	}
	p.Interleaved = true
	if off := p.Offset(1, 0, 2); off != 2*4*4*units.MiB+4*units.MiB {
		t.Fatalf("interleaved offset = %d", off)
	}
	p.Interleaved = false
	p.FilePerProc = true
	if off := p.Offset(3, 0, 1); off != 4*units.MiB {
		t.Fatalf("file-per-proc offset = %d (rank must not matter)", off)
	}
}

func TestRunMovesAllData(t *testing.T) {
	c := cluster.Build(cluster.ConfigA())
	res := RunOn(c, smallParams())
	if res.WriteBW <= 0 || res.ReadBW <= 0 {
		t.Fatalf("bw = %v / %v", res.WriteBW, res.ReadBW)
	}
	if res.WriteOps != 16 || res.ReadOps != 16 {
		t.Fatalf("ops %d/%d, want 16 each", res.WriteOps, res.ReadOps)
	}
	if got := c.IODevice(0).Counters().WriteBytes; got != 64*units.MiB {
		t.Fatalf("device write bytes %d", got)
	}
	if res.IOPSw <= 0 || res.IOPSr <= 0 {
		t.Fatalf("iops %v/%v", res.IOPSw, res.IOPSr)
	}
}

func TestNFSWriteBandwidthIsNetworkBound(t *testing.T) {
	p := Params{
		NP: 8, BlockSize: 64 * units.MiB, Transfer: 8 * units.MiB,
		Segments: 1, DoWrite: true, Fsync: true,
	}
	res := Run(cluster.ConfigA(), p)
	bw := res.WriteBW.MBpsValue()
	if bw < 60 || bw > 115 {
		t.Fatalf("configA IOR write = %.1f MB/s, want 1GbE-bound (60–115)", bw)
	}
}

func TestCollectiveFlagRuns(t *testing.T) {
	p := smallParams()
	p.Collective = true
	res := Run(cluster.ConfigA(), p)
	if res.WriteBW <= 0 || res.ReadBW <= 0 {
		t.Fatalf("collective run produced %v / %v", res.WriteBW, res.ReadBW)
	}
}

func TestFilePerProcRuns(t *testing.T) {
	p := smallParams()
	p.FilePerProc = true
	c := cluster.Build(cluster.ConfigB())
	res := RunOn(c, p)
	if res.WriteBW <= 0 {
		t.Fatal("file-per-proc write failed")
	}
	// Four private files over three JBOD targets: every target touched.
	touched := 0
	for i := 0; i < 3; i++ {
		if c.IODevice(i).Counters().WriteBytes > 0 {
			touched++
		}
	}
	if touched != 3 {
		t.Fatalf("only %d of 3 JBOD targets used", touched)
	}
}

func TestFsyncLowersWriteBandwidth(t *testing.T) {
	// On a fast network with a server cache, untimed dirty data inflates
	// bandwidth; -e must bring it down to device speed.
	base := Params{
		NP: 16, BlockSize: 8 * units.MiB, Transfer: 4 * units.MiB,
		Segments: 1, DoWrite: true,
	}
	withSync := base
	withSync.Fsync = true
	plain := Run(cluster.Finisterrae(), base)
	synced := Run(cluster.Finisterrae(), withSync)
	if synced.WriteBW >= plain.WriteBW {
		t.Fatalf("fsync did not reduce write bw: %v vs %v", synced.WriteBW, plain.WriteBW)
	}
}

func TestReorderedReadsAvoidServerCache(t *testing.T) {
	p := Params{
		NP: 4, BlockSize: 32 * units.MiB, Transfer: 8 * units.MiB,
		Segments: 1, DoWrite: true, DoRead: true,
	}
	reordered := p
	reordered.ReorderRead = true
	a := Run(cluster.ConfigA(), p)
	b := Run(cluster.ConfigA(), reordered)
	// Both should hit storage because the harness drops caches between
	// passes; reordering must not *increase* bandwidth.
	if b.ReadBW > a.ReadBW*2 {
		t.Fatalf("reordered read bw %v vs %v", b.ReadBW, a.ReadBW)
	}
	if a.ReadBW.MBpsValue() > 400 {
		t.Fatalf("read pass served from cache: %.0f MB/s", a.ReadBW.MBpsValue())
	}
}

func TestFromReplaySpec(t *testing.T) {
	rs := core.ReplaySpec{
		PhaseID: 3, NP: 16, BlockPerProc: 256 * units.MiB,
		Transfer: 32 * units.MiB, Segments: 1,
		Collective: true, Direction: core.Write,
	}
	p := FromReplay(rs)
	if p.NP != 16 || p.BlockSize != 256*units.MiB || p.Transfer != 32*units.MiB {
		t.Fatalf("params %+v", p)
	}
	if !p.DoWrite || p.DoRead || !p.Collective || !p.Fsync {
		t.Fatalf("flags %+v", p)
	}
	rs.Direction = core.Mixed
	p = FromReplay(rs)
	if !p.DoWrite || !p.DoRead || !p.ReorderRead {
		t.Fatalf("mixed flags %+v", p)
	}
}

func TestFromReplayGuardsDegenerateBlock(t *testing.T) {
	rs := core.ReplaySpec{
		PhaseID: 1, NP: 3, BlockPerProc: 10*units.MiB + 7,
		Transfer: 4 * units.MiB, Segments: 1, Direction: core.Read,
	}
	p := FromReplay(rs)
	if err := p.Validate(); err != nil {
		t.Fatalf("guard failed: %v (%+v)", err, p)
	}
}

// TestValidateModel pins the rule set every model passes before
// prediction: each malformed shape is an error naming the phase, never a
// panic, and a well-formed model passes.
func TestValidateModel(t *testing.T) {
	valid := func() *core.Model {
		return &core.Model{App: "x", NP: 2, AccessType: "shared", Phases: []*core.PhaseModel{
			{ID: 1, NP: 2, Rep: 1, Weight: 2 * units.MiB,
				Ops: []core.OpModel{{Op: trace.OpWriteAt, Size: units.MiB}}},
			{ID: 2, NP: 2, Rep: 4, Weight: 16 * units.MiB, Ops: []core.OpModel{
				{Op: trace.OpWriteAt, Size: units.MiB, Disp: 2 * units.MiB},
				{Op: trace.OpReadAt, Size: units.MiB, Disp: 2 * units.MiB}}},
		}}
	}
	cases := []struct {
		name   string
		mutate func(m *core.Model)
		want   string // "" = accepted
	}{
		{"valid", func(*core.Model) {}, ""},
		{"no ops", func(m *core.Model) { m.Phases[0].Ops = nil }, "model phase 1: no operations"},
		{"np 0", func(m *core.Model) { m.Phases[1].NP = 0 }, "model phase 2: np 0"},
		{"rep 0", func(m *core.Model) { m.Phases[1].Rep = 0 }, "model phase 2: rep 0"},
		{"negative request size", func(m *core.Model) {
			m.Phases[0].Ops[0].Size, m.Phases[0].Weight = -5, -10
		}, "model phase 1: ior: b=-5 t=-5 s=1"},
		{"zero request size", func(m *core.Model) { m.Phases[0].Ops[0].Size = 0 }, "model phase 1: ior: b="},
		{"negative later slot", func(m *core.Model) { m.Phases[1].Ops[1].Size = -5 }, "model phase 2: ior:"},
		{"null phase", func(m *core.Model) { m.Phases[1] = nil }, "model phase entry 1 is null"},
	}
	for _, tc := range cases {
		m := valid()
		tc.mutate(m)
		err := ValidateModel(m)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestInterleavedDenseLayoutBeatsBlockLayoutUnderConcurrency(t *testing.T) {
	// With 8 concurrent writers, transfer-interleaved placement covers
	// the file densely in arrival order (near-sequential at the disk),
	// while per-rank 32 MiB blocks make the head jump between eight
	// regions — a seek per request on the JBOD PVFS configuration. The
	// same effect is why collective I/O reorders to file order.
	base := Params{
		NP: 8, BlockSize: 32 * units.MiB, Transfer: units.MiB,
		Segments: 1, DoWrite: true, Fsync: true,
	}
	inter := base
	inter.Interleaved = true
	seqRes := Run(cluster.ConfigB(), base)
	intRes := Run(cluster.ConfigB(), inter)
	if intRes.WriteBW < seqRes.WriteBW {
		t.Fatalf("dense interleaved (%v) should beat block layout (%v) under concurrency",
			intRes.WriteBW, seqRes.WriteBW)
	}
}

func TestRandomOrderSlowerOnDiskBoundFS(t *testing.T) {
	// Table III's random access mode: shuffled chunk order defeats
	// sequential streaming on the seek-bound PVFS configuration.
	// One process isolates the pattern effect: with several concurrent
	// ranks even "sequential" interleaves at the disk.
	base := Params{
		NP: 1, BlockSize: 256 * units.MiB, Transfer: units.MiB,
		Segments: 1, DoWrite: true, DoRead: true, Fsync: true,
	}
	random := base
	random.RandomOrder = true
	random.Seed = 11
	seq := Run(cluster.ConfigB(), base)
	rnd := Run(cluster.ConfigB(), random)
	if rnd.ReadBW >= seq.ReadBW {
		t.Fatalf("random reads (%v) should be slower than sequential (%v)", rnd.ReadBW, seq.ReadBW)
	}
}

func TestRandomOrderDeterministic(t *testing.T) {
	p := Params{
		NP: 2, BlockSize: 16 * units.MiB, Transfer: units.MiB,
		Segments: 1, DoWrite: true, RandomOrder: true, Seed: 3,
	}
	a := Run(cluster.ConfigA(), p)
	b := Run(cluster.ConfigA(), p)
	if a.WriteTime != b.WriteTime {
		t.Fatalf("same seed differs: %v vs %v", a.WriteTime, b.WriteTime)
	}
}
