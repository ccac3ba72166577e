package iophases

// One benchmark per table and figure of the paper (see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices the
// simulator embodies. Benchmarks run scaled-down workloads so `go test
// -bench=.` completes quickly; cmd/experiments regenerates the full-scale
// tables. Key reproduced quantities are attached as custom metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/coexec"
	"iophases/internal/core"
	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/fastpath"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/iozone"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/pattern"
	"iophases/internal/phase"
	"iophases/internal/predict"
	"iophases/internal/runner"
	"iophases/internal/simcache"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// benchBTIOSet traces a small BT-IO run once (shared across iterations of
// analysis-stage benchmarks).
func benchBTIOSet(b *testing.B, np int, class btio.Class) *trace.Set {
	b.Helper()
	params := btio.Default(class)
	res := runner.Run(cluster.ConfigA(), np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	return res.Set
}

func benchMadbenchSet(b *testing.B, cfg cluster.Spec, np int, rs int64) *trace.Set {
	b.Helper()
	params := madbench.Default()
	params.RS = rs
	res := runner.Run(cfg, np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return res.Set
}

// BenchmarkFig2TraceExample regenerates the Figure 2 trace rows: a traced
// BT-IO run whose per-rank files show the 121-tick dump spacing.
func BenchmarkFig2TraceExample(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		set := benchBTIOSet(b, 4, btio.ClassW)
		evs := set.DataEvents(0)
		events = len(evs)
		if evs[1].Tick-evs[0].Tick != 121 {
			b.Fatalf("dump spacing %d", evs[1].Tick-evs[0].Tick)
		}
	}
	b.ReportMetric(float64(events), "events/rank")
}

// BenchmarkFig3LAPExtraction measures LAP mining over a traced rank.
func BenchmarkFig3LAPExtraction(b *testing.B) {
	set := benchBTIOSet(b, 4, btio.ClassW)
	evs := set.DataEvents(0)
	b.ResetTimer()
	var laps []pattern.StreamLAP
	for i := 0; i < b.N; i++ {
		laps = pattern.Extract(0, evs)
	}
	if len(laps) == 0 {
		b.Fatal("no LAPs")
	}
	b.ReportMetric(float64(len(laps)), "laps")
}

// BenchmarkFig4PhaseIdent measures cross-rank phase identification.
func BenchmarkFig4PhaseIdent(b *testing.B) {
	set := benchBTIOSet(b, 4, btio.ClassW)
	b.ResetTimer()
	var res *phase.Result
	for i := 0; i < b.N; i++ {
		res = phase.Identify(set)
	}
	want := btio.ClassW.Dumps() + 1
	if len(res.Phases) != want {
		b.Fatalf("phases %d, want %d", len(res.Phases), want)
	}
	b.ReportMetric(float64(len(res.Phases)), "phases")
}

// BenchmarkPhaseIdentClassD measures phase identification at class-D scale:
// 16 ranks, all 50 dumps, each dump scattered into 16 strided pieces via
// the SIMPLE subtype — tens of thousands of data events, the analysis-stage
// workload the parallel per-rank extraction fan-out exists for. The trace
// is built once; each iteration is one cold Identify over all ranks.
func BenchmarkPhaseIdentClassD(b *testing.B) {
	params := btio.Default(btio.ClassD)
	params.Subtype = btio.Simple
	params.PiecesPerRank = 16
	run := runner.Run(cluster.ConfigA(), 16, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	set := run.Set
	events := 0
	for p := 0; p < set.NP; p++ {
		events += len(set.DataEvents(p))
	}
	b.ResetTimer()
	var res *phase.Result
	for i := 0; i < b.N; i++ {
		res = phase.Identify(set)
	}
	if len(res.Phases) == 0 {
		b.Fatal("no phases")
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(len(res.Phases)), "phases")
}

// BenchmarkPhaseIdentWide measures Identify on a wide synthetic trace —
// 64 ranks × 1024 data events of a MADBench-like periodic mix — where
// per-rank LAP mining dominates and the sweep fan-out has real work to
// spread. Complements BenchmarkPhaseIdentClassD, whose trace is the real
// (but small) class-D event stream.
func BenchmarkPhaseIdentWide(b *testing.B) {
	const (
		np     = 64
		perOp  = int64(4) * units.MiB
		rounds = 256 // 4 ops per round -> 1024 events per rank
	)
	set := trace.NewSet("synthetic", "bench", np)
	set.AddFile(trace.FileMeta{ID: 0, Name: "/wide", AccessType: "shared",
		PointerSet: "explicit", Blocking: true})
	for p := 0; p < np; p++ {
		base := int64(p) * int64(rounds) * 4 * perOp
		tick := int64(0)
		tm := units.Duration(0)
		for rnd := int64(0); rnd < rounds; rnd++ {
			for k := int64(0); k < 4; k++ {
				op := trace.OpWrite
				if k%2 == 1 {
					op = trace.OpRead
				}
				tick++
				set.Record(trace.Event{Rank: p, File: 0, Op: op,
					Offset: base + (rnd*4+k)*perOp, Tick: tick, Size: perOp,
					Time: tm, Duration: 10 * units.Millisecond})
				tm += 20 * units.Millisecond
			}
			tick += 3 // inter-round gap
		}
	}
	b.ResetTimer()
	var res *phase.Result
	for i := 0; i < b.N; i++ {
		res = phase.Identify(set)
	}
	if len(res.Phases) == 0 {
		b.Fatal("no phases")
	}
	b.ReportMetric(float64(np*rounds*4), "events")
}

// BenchmarkStreamIdentSynth measures the bounded-memory streaming pipeline
// end to end: a generated synthetic source (8 ranks × 64k events) flows
// through the per-rank incremental miners, which also time the split dump
// repetitions, and phase identification, which reads each rank once.
// Events are produced on the fly, so the measured footprint is the
// pipeline's own — the property the 256 MiB CI smoke enforces at 10M+
// events.
func BenchmarkStreamIdentSynth(b *testing.B) {
	src, err := trace.Synth(trace.SynthSpec{NP: 8, EventsPerRank: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * (64 << 10))
	b.ResetTimer()
	var res *phase.Result
	for i := 0; i < b.N; i++ {
		res, err = phase.IdentifyStream(src)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Phases) == 0 {
		b.Fatal("no phases")
	}
	b.ReportMetric(float64(len(res.Phases)), "phases")
}

// BenchmarkStreamIdentBinary is perfbench extract-bin's op in-repo:
// core.BuildStream over a freshly opened IOBIN1 directory of 2^19 synthetic
// events (8 ranks × 64k), so IOBIN1 decoding, once per rank, shares the
// time with mining and identification. MB/s is trace-file bytes.
func BenchmarkStreamIdentBinary(b *testing.B) {
	src, err := trace.Synth(trace.SynthSpec{NP: 8, EventsPerRank: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := trace.WriteDir(src, dir, trace.FormatBinary); err != nil {
		b.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "trace.*.bin"))
	if err != nil || len(files) != 8 {
		b.Fatalf("rank files %v: %v", files, err)
	}
	var size int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			b.Fatal(err)
		}
		size += st.Size()
	}
	b.SetBytes(size)
	b.ResetTimer()
	var m *core.Model
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if m, err = core.BuildStream(src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(m.Phases)), "phases")
}

// BenchmarkStreamIdentVsInMemory runs the one extraction pipeline over the
// same events from both kinds of source: "inmemory" reads a resident Set,
// whose slices trace.Each passes whole, and "stream" reads the synthetic
// generator in fixed-size chunks. The stream side also times the
// generator; its allocs/op should stay flat as EventsPerRank grows.
func BenchmarkStreamIdentVsInMemory(b *testing.B) {
	src, err := trace.Synth(trace.SynthSpec{NP: 4, EventsPerRank: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	set, err := trace.ReadSet(src)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := phase.Identify(set); len(res.Phases) == 0 {
				b.Fatal("no phases")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := phase.IdentifyStream(src)
			if err != nil || len(res.Phases) == 0 {
				b.Fatalf("stream: %v", err)
			}
		}
	})
}

// BenchmarkFig5AbstractModel measures full model construction.
func BenchmarkFig5AbstractModel(b *testing.B) {
	set := benchBTIOSet(b, 4, btio.ClassW)
	b.ResetTimer()
	var m *core.Model
	for i := 0; i < b.N; i++ {
		m = core.Build(set)
	}
	if m.AccessMode != "strided" {
		b.Fatalf("mode %s", m.AccessMode)
	}
	b.ReportMetric(float64(len(m.AccessPoints())), "access-points")
}

// BenchmarkFig6IORModel extracts the I/O model of an IOR run: exactly one
// write phase and one read phase.
func BenchmarkFig6IORModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := ior.Run(cluster.ConfigA(), ior.Params{
			NP: 4, BlockSize: 16 * units.MiB, Transfer: 4 * units.MiB,
			Segments: 1, DoWrite: true, DoRead: true, TraceRun: true,
		})
		m := core.Build(res.Trace)
		if len(m.Phases) != 2 || m.Phases[0].Direction() != core.Write || m.Phases[1].Direction() != core.Read {
			b.Fatalf("IOR model %v", m.Phases)
		}
	}
}

// BenchmarkTable8MadbenchPhases regenerates the five-phase MADBench2 model
// with Table VIII's weights ratio 4:1:6:1:4.
func BenchmarkTable8MadbenchPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := benchMadbenchSet(b, cluster.ConfigA(), 16, 4*units.MiB)
		m := core.Build(set)
		if len(m.Phases) != 5 {
			b.Fatalf("phases %d", len(m.Phases))
		}
		if m.Phases[0].Weight != 4*m.Phases[1].Weight || m.Phases[2].Weight != 6*m.Phases[1].Weight {
			b.Fatal("weight ratios broken")
		}
	}
	b.ReportMetric(5, "phases")
}

// usageBench computes Eq. 5 for a configuration and reports the mean usage.
func usageBench(b *testing.B, cfg cluster.Spec) {
	var mean float64
	for i := 0; i < b.N; i++ {
		set := benchMadbenchSet(b, cfg, 8, 8*units.MiB)
		m := core.Build(set)
		pkW, pkR := predict.PeakBandwidth(cfg, units.GiB, 8*units.MiB)
		var sum float64
		for _, pm := range m.Phases {
			bwMD := units.BandwidthOf(pm.Weight, units.FromSeconds(pm.MeasuredSec))
			pk := pkW
			if pm.Direction() == core.Read {
				pk = pkR
			}
			sum += predict.Usage(bwMD, pk)
		}
		mean = sum / float64(len(m.Phases))
	}
	b.ReportMetric(mean, "usage-%")
}

// BenchmarkTable9UsageConfA regenerates Table IX's usage column.
func BenchmarkTable9UsageConfA(b *testing.B) { usageBench(b, cluster.ConfigA()) }

// BenchmarkTable10UsageConfB regenerates Table X's usage column.
func BenchmarkTable10UsageConfB(b *testing.B) { usageBench(b, cluster.ConfigB()) }

// BenchmarkFig8DeviceMonitor runs MADBench2 on configuration B with
// device-level monitoring and reports the samples collected.
func BenchmarkFig8DeviceMonitor(b *testing.B) {
	var samples int
	for i := 0; i < b.N; i++ {
		params := madbench.Default()
		params.RS = 8 * units.MiB
		res := runner.Run(cluster.ConfigB(), 8, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
			return madbench.Program(sys, params)
		}, runner.Options{Trace: true, MonitorInterval: units.Second, DrainAtEnd: true})
		samples = len(res.Monitor.Samples())
		if samples < 3 {
			b.Fatalf("samples %d", samples)
		}
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkFig9BTIOModelC verifies model independence across
// configurations A and B.
func BenchmarkFig9BTIOModelC(b *testing.B) {
	params := btio.Default(btio.ClassW)
	for i := 0; i < b.N; i++ {
		run := func(spec cluster.Spec) *core.Model {
			res := runner.Run(spec, 4, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
				return btio.Program(sys, params)
			}, runner.Options{Trace: true})
			return core.Build(res.Set)
		}
		if !run(cluster.ConfigA()).SameShape(run(cluster.ConfigB())) {
			b.Fatal("model not subsystem-independent")
		}
	}
}

// BenchmarkTable11BTIOPhases checks the phase-family structure and offset
// functions of Table XI.
func BenchmarkTable11BTIOPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := benchBTIOSet(b, 4, btio.ClassW)
		m := core.Build(set)
		dumps := btio.ClassW.Dumps()
		rs := btio.ClassW.RS(4)
		if len(m.Phases) != dumps+1 {
			b.Fatalf("phases %d", len(m.Phases))
		}
		first := m.Phases[0]
		if first.OffsetA != rs || first.OffsetB != 4*rs || !first.OffsetOK {
			b.Fatalf("offset fn %+v", first)
		}
	}
}

// shortClassD is class D with fewer dumps: full 2.65 GB dump weight (above
// every server cache), bench-friendly runtime.
func shortClassD() btio.Class {
	c := btio.ClassD
	c.TimeSteps = 25
	return c
}

// BenchmarkTable12TimeEstimation estimates class-D BT-IO on configC vs
// Finisterrae and reports the win factor.
func BenchmarkTable12TimeEstimation(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		params := btio.Default(shortClassD())
		res := runner.Run(cluster.ConfigC(), 16, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
			return btio.Program(sys, params)
		}, runner.Options{Trace: true})
		m := core.Build(res.Set)
		best, choices, err := predict.SelectConfig(m, []cluster.Spec{cluster.ConfigC(), cluster.Finisterrae()})
		if err != nil {
			b.Fatal(err)
		}
		if choices[best].Config != "finisterrae" {
			b.Fatalf("selected %s", choices[best].Config)
		}
		factor = choices[0].Total.Seconds() / choices[1].Total.Seconds()
	}
	b.ReportMetric(factor, "finisterrae-win-x")
}

// errorBench measures the estimation error of Tables XIII/XIV.
func errorBench(b *testing.B, spec cluster.Spec, np int) {
	var worst float64
	for i := 0; i < b.N; i++ {
		params := btio.Default(shortClassD())
		res := runner.Run(spec, np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
			return btio.Program(sys, params)
		}, runner.Options{Trace: true})
		m := core.Build(res.Set)
		est, err := predict.EstimateTime(m, spec)
		if err != nil {
			b.Fatal(err)
		}
		groups, err := predict.CompareByFamily(est, m)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, g := range groups {
			if g.RelErr > worst {
				worst = g.RelErr
			}
		}
		if worst > 15 {
			b.Fatalf("error %.1f%% exceeds the paper's bound", worst)
		}
	}
	b.ReportMetric(worst, "worst-err-%")
}

// BenchmarkTable13ErrorConfC regenerates Table XIII's error column.
func BenchmarkTable13ErrorConfC(b *testing.B) { errorBench(b, cluster.ConfigC(), 16) }

// BenchmarkTable14ErrorFinisterrae regenerates Table XIV's error column.
func BenchmarkTable14ErrorFinisterrae(b *testing.B) { errorBench(b, cluster.Finisterrae(), 16) }

// BenchmarkPhase3MixedError measures the characterization error of
// MADBench2's phases when replayed by single-direction IOR runs (§V).
func BenchmarkPhase3MixedError(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		set := benchMadbenchSet(b, cluster.ConfigA(), 16, 32*units.MiB)
		m := core.Build(set)
		est, err := predict.EstimateTime(m, cluster.ConfigA())
		if err != nil {
			b.Fatal(err)
		}
		groups, err := predict.CompareByFamily(est, m)
		if err != nil {
			b.Fatal(err)
		}
		maxErr = 0
		for _, g := range groups {
			if g.RelErr > maxErr {
				maxErr = g.RelErr
			}
		}
	}
	b.ReportMetric(maxErr, "max-phase-err-%")
}

// BenchmarkIORSweep runs the Table III characterization sweep.
func BenchmarkIORSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range []int64{units.MiB, 8 * units.MiB} {
			res := ior.Run(cluster.ConfigA(), ior.Params{
				NP: 4, BlockSize: 16 * units.MiB, Transfer: t,
				Segments: 1, DoWrite: true, DoRead: true, Fsync: true,
			})
			if res.WriteBW <= 0 {
				b.Fatal("sweep failed")
			}
		}
	}
}

// BenchmarkIOzoneSweep runs the Table IV device sweep.
func BenchmarkIOzoneSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := cluster.Build(cluster.ConfigA())
		results := iozone.Sweep(c.Eng, c.IODevice(0), 256*units.MiB,
			[]int64{256 * units.KiB, 4 * units.MiB})
		if len(results) != 6 {
			b.Fatalf("sweep %d", len(results))
		}
	}
}

// BenchmarkAblationCollective compares BT-IO FULL (collective, two-phase
// I/O) against SIMPLE (independent) on a strided decomposition — the
// design choice collective buffering exists for.
func BenchmarkAblationCollective(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		run := func(subtype string) units.Duration {
			params := btio.Default(btio.ClassA)
			params.Subtype = subtype
			params.PiecesPerRank = 16 // nested strided pieces
			// Configuration B's cacheless JBOD disks pay a seek per
			// scattered piece; two-phase I/O repacks them into
			// streams.
			res := runner.Run(cluster.ConfigB(), 4, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
				return btio.Program(sys, params)
			}, runner.Options{Trace: true, DrainAtEnd: true})
			return res.Elapsed
		}
		simple := run(btio.Simple)
		full := run(btio.Full)
		speedup = simple.Seconds() / full.Seconds()
	}
	if speedup < 1.2 {
		b.Fatalf("collective buffering speedup %.2f, expected > 1.2 on strided pieces", speedup)
	}
	b.ReportMetric(speedup, "collective-speedup-x")
}

// raidStreamTime measures the virtual time of a misaligned sub-stripe
// write stream against an array of the given level.
func raidStreamTime(b *testing.B, level disksim.RAIDLevel, req int64) units.Duration {
	b.Helper()
	eng := des.NewEngine()
	var members []*disksim.Disk
	for d := 0; d < 5; d++ {
		members = append(members, disksim.NewDisk(eng, fmt.Sprintf("d%d", d),
			disksim.SATA7200(units.TiB)))
	}
	a := disksim.NewArray(eng, "a", level, members, 256*units.KiB)
	eng.Spawn("w", func(p *des.Proc) {
		// Offset by half a unit so every request straddles stripes.
		for i := int64(0); i < 256; i++ {
			a.Write(p, 128*units.KiB+i*req, req)
		}
	})
	eng.Run()
	return eng.Now()
}

// BenchmarkAblationRAID compares RAID5 against RAID0 under the same
// misaligned write load (the read-modify-write parity cost).
func BenchmarkAblationRAID(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		r5 := raidStreamTime(b, disksim.RAID5, 128*units.KiB) // sub-stripe: pays RMW
		r0 := raidStreamTime(b, disksim.RAID0, 128*units.KiB)
		penalty = r5.Seconds() / r0.Seconds()
	}
	if penalty < 1.2 {
		b.Fatalf("RAID5 RMW penalty %.2f, expected > 1.2 for sub-stripe writes", penalty)
	}
	b.ReportMetric(penalty, "raid5-rmw-penalty-x")
}

// BenchmarkAblationTickSplit quantifies the tick-gap phase-splitting rule:
// with it, BT-IO's writes become per-round phases; without it (naive RLE
// only), they would collapse into one.
func BenchmarkAblationTickSplit(b *testing.B) {
	set := benchBTIOSet(b, 4, btio.ClassW)
	b.ResetTimer()
	var split, naive int
	for i := 0; i < b.N; i++ {
		res := phase.Identify(set)
		split = len(res.Phases)
		naive = len(res.Families())
	}
	if split <= naive {
		b.Fatalf("splitting had no effect: %d vs %d", split, naive)
	}
	b.ReportMetric(float64(split), "phases-with-split")
	b.ReportMetric(float64(naive), "phases-naive")
}

// BenchmarkAblationDegradedRAID measures the read penalty of a RAID5
// array running with a failed member (reconstruction reads). The member
// is lost by a raid-member-lost effect with no window end, attached
// before the disks are built as cluster.Build attaches a scenario.
func BenchmarkAblationDegradedRAID(b *testing.B) {
	lost := &faults.Schedule{Name: "lost", Effects: []faults.Effect{
		{Kind: faults.RAIDMemberLost, Member: 1},
	}}
	read := func(degrade bool) units.Duration {
		eng := des.NewEngine()
		if degrade {
			faults.Attach(eng, lost, "bench")
		}
		var members []*disksim.Disk
		for i := 0; i < 5; i++ {
			members = append(members, disksim.NewDisk(eng, fmt.Sprintf("d%d", i),
				disksim.SATA7200(units.TiB)))
		}
		a := disksim.NewArray(eng, "r5", disksim.RAID5, members, 256*units.KiB)
		eng.Spawn("r", func(p *des.Proc) {
			for i := int64(0); i < 64; i++ {
				a.Read(p, i*4*units.MiB, 4*units.MiB)
			}
		})
		eng.Run()
		return eng.Now()
	}
	var penalty float64
	for i := 0; i < b.N; i++ {
		penalty = read(true).Seconds() / read(false).Seconds()
	}
	if penalty <= 1 {
		b.Fatalf("degraded penalty %.2f", penalty)
	}
	b.ReportMetric(penalty, "degraded-read-penalty-x")
}

// BenchmarkRescalePrediction validates model rescaling: the 4p model
// rescaled to 16p must estimate within a few percent of the model traced
// at 16p.
func BenchmarkRescalePrediction(b *testing.B) {
	var err float64
	for i := 0; i < b.N; i++ {
		params := btio.Default(btio.ClassW)
		trace4 := runner.Run(cluster.ConfigA(), 4, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
			return btio.Program(sys, params)
		}, runner.Options{Trace: true})
		m16, rerr := core.Build(trace4.Set).Rescale(16)
		if rerr != nil {
			b.Fatal(rerr)
		}
		actual := runner.Run(cluster.ConfigA(), 16, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
			return btio.Program(sys, params)
		}, runner.Options{Trace: true})
		estScaled, serr := predict.EstimateTime(m16, cluster.ConfigA())
		if serr != nil {
			b.Fatal(serr)
		}
		estActual, aerr := predict.EstimateTime(core.Build(actual.Set), cluster.ConfigA())
		if aerr != nil {
			b.Fatal(aerr)
		}
		err = predict.RelativeError(estScaled.TotalCH.Seconds(), estActual.TotalCH.Seconds())
		if err > 10 {
			b.Fatalf("rescaled prediction off by %.1f%%", err)
		}
	}
	b.ReportMetric(err, "rescale-err-%")
}

// BenchmarkAblationDataSieving compares independent strided reads with and
// without ROMIO-style data sieving in its favourable regime (tiny pieces,
// request latency dominated).
func BenchmarkAblationDataSieving(b *testing.B) {
	run := func(enable string) units.Duration {
		c := cluster.Build(cluster.ConfigA())
		w := mpi.NewWorld(c.Eng, c.Fabric, []string{c.NodeOfRank(0, 1)})
		sys := mpiio.NewSystem(c.FS, w)
		var took units.Duration
		w.Run(func(r *mpi.Rank) {
			f := sys.Open(r, "/sieve", mpiio.Shared)
			f.SetView(r, 0, 1, mpiio.Vector{Block: 4 * units.KiB, Stride: 8 * units.KiB})
			f.SetHint("romio_ds_read", enable)
			start := r.Now()
			f.ReadAt(r, 0, 2*units.MiB)
			took = r.Now() - start
			f.Close(r)
		})
		return took
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = run("disable").Seconds() / run("enable").Seconds()
	}
	if speedup <= 1 {
		b.Fatalf("sieving speedup %.2f", speedup)
	}
	b.ReportMetric(speedup, "sieving-speedup-x")
}

// BenchmarkAblationStripe sweeps the Lustre file stripe count for a
// shared-file collective write — the knob behind Finisterrae's shared-file
// behaviour.
func BenchmarkAblationStripe(b *testing.B) {
	var best float64
	var bestSC int
	for i := 0; i < b.N; i++ {
		for _, sc := range []int{1, 4, 18} {
			spec := cluster.Finisterrae()
			spec.Storage.FileStripeCount = sc
			res := ior.Run(spec, ior.Params{
				NP: 16, BlockSize: 64 * units.MiB, Transfer: 8 * units.MiB,
				Segments: 1, DoWrite: true, Collective: true, Fsync: true,
			})
			if bw := res.WriteBW.MBpsValue(); bw > best {
				best, bestSC = bw, sc
			}
		}
	}
	if bestSC == 1 {
		b.Fatal("wider striping should beat stripe_count=1 for a shared file")
	}
	b.ReportMetric(best, "best-MB/s")
	b.ReportMetric(float64(bestSC), "best-stripe-count")
}

// BenchmarkAblationPlacement compares block vs scatter rank placement for
// NIC-bound writers on a fully striped Lustre (§IV-A's process-placement
// remark).
func BenchmarkAblationPlacement(b *testing.B) {
	prog := func(sys *mpiio.System) func(r *mpi.Rank) {
		return func(r *mpi.Rank) {
			f := sys.Open(r, "/p", mpiio.Shared)
			f.WriteAt(r, int64(r.ID())*512*units.MiB, 512*units.MiB)
			f.Close(r)
		}
	}
	spec := cluster.Finisterrae()
	spec.Storage.FileStripeCount = 0
	var speedup float64
	for i := 0; i < b.N; i++ {
		block := runner.Run(spec, 4, "p", prog, runner.Options{Placement: cluster.PlaceBlock})
		scatter := runner.Run(spec, 4, "p", prog, runner.Options{Placement: cluster.PlaceScatter})
		speedup = block.Elapsed.Seconds() / scatter.Elapsed.Seconds()
	}
	if speedup <= 1 {
		b.Fatalf("scatter speedup %.2f", speedup)
	}
	b.ReportMetric(speedup, "scatter-speedup-x")
}

// BenchmarkCoexecPair measures a two-application co-execution: both jobs'
// phase schedules replayed inside one engine on one shared fabric +
// filesystem (the multi-application contention tier). Models are built
// once; each iteration is one full shared-cluster simulation, bypassing
// the replay cache so the simulation itself is what's priced.
func BenchmarkCoexecPair(b *testing.B) {
	a := core.Build(benchMadbenchSet(b, cluster.ConfigA(), 4, units.MiB))
	spec := coexec.Spec{Config: cluster.ConfigA(), Apps: []coexec.App{
		{Name: "a", Model: a},
		{Name: "b", Model: a, OffsetSec: 1},
	}}
	b.ResetTimer()
	var res *coexec.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coexec.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	var wr int64
	for _, ar := range res.Apps {
		wr += ar.Acct.BytesWritten
	}
	if wr != res.FSWritten {
		b.Fatalf("attribution leak: %d vs %d", wr, res.FSWritten)
	}
	b.ReportMetric(res.TotalTimeIO.Seconds(), "total-timeio-s")
}

// benchNP1Model traces MADBench2 at a single rank: five non-collective
// phases, every one admissible to the analytic fast path. This is the
// contention-free workload class the raw-speed tier exists for.
func benchNP1Model(b *testing.B) *core.Model {
	b.Helper()
	params := madbench.Default()
	params.RS = units.MiB
	res := runner.Run(cluster.ConfigA(), 1, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return core.Build(res.Set)
}

// contentionFreeVariants is the subset of the standard what-if sweep the
// analytic tier admits: network generations and device organizations on a
// single storage target (§I's "RAID or single disks?" axis). The striped
// multi-server variants are excluded — striping is cross-server contention
// by construction, so those always take the DES and would only measure it.
func contentionFreeVariants(base cluster.Spec) []predict.Variant {
	var out []predict.Variant
	for _, v := range predict.StandardVariants(base) {
		if v.Spec.Storage.IONodes == 1 || v.Spec.Storage.FileStripeCount == 1 {
			out = append(out, v)
		}
	}
	return out
}

// fastPathExploreBench runs a contention-free what-if sweep over the
// single-rank model with the given fast-path mode. The simulation cache is
// reset every iteration so the benchmark prices simulations, not
// memoization — the pair (DES vs FastPath) isolates the analytic tier's
// raw speedup on Explore-style workloads.
func fastPathExploreBench(b *testing.B, mode fastpath.Mode) {
	m := benchNP1Model(b)
	variants := contentionFreeVariants(cluster.ConfigA())
	opts := predict.EstimateOptions{FastPath: mode}
	hits0, _ := fastpath.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simcache.Reset()
		if _, err := predict.ExploreOpts(m, variants, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, _ := fastpath.Stats()
	b.ReportMetric(float64(hits-hits0)/float64(b.N), "fp-hits/op")
}

// BenchmarkExploreNP1DES is the what-if sweep priced entirely by the
// discrete-event simulator (fast path off) — the pre-fast-path baseline.
func BenchmarkExploreNP1DES(b *testing.B) { fastPathExploreBench(b, fastpath.ModeOff) }

// BenchmarkExploreNP1FastPath is the same sweep with contention-free
// replays priced analytically. ns/op here versus BenchmarkExploreNP1DES is
// the raw-speed tier's win on its target workload class.
func BenchmarkExploreNP1FastPath(b *testing.B) { fastPathExploreBench(b, fastpath.ModeOn) }

// charzNP1Cases is a Table III-style single-rank characterization slice:
// transfer sizes swept at a fixed block size, write+read with fsync.
func charzNP1Cases() []ior.Params {
	sizes := []int64{64 * units.KiB, 256 * units.KiB, units.MiB, 4 * units.MiB}
	out := make([]ior.Params, 0, len(sizes))
	for _, ts := range sizes {
		out = append(out, ior.Params{
			NP: 1, BlockSize: 8 * units.MiB, Transfer: ts,
			Segments: 1, DoWrite: true, DoRead: true, Fsync: true,
		})
	}
	return out
}

// BenchmarkIORCharzNP1DES prices the single-rank characterization slice
// with the full simulator: cluster build, event loop, device clocks.
func BenchmarkIORCharzNP1DES(b *testing.B) {
	cases := charzNP1Cases()
	for i := 0; i < b.N; i++ {
		for _, p := range cases {
			ior.Run(cluster.ConfigA(), p)
		}
	}
}

// BenchmarkIORCharzNP1FastPath prices the same slice in closed form. Every
// case must be served analytically — a bailout would silently turn this
// into a DES benchmark.
func BenchmarkIORCharzNP1FastPath(b *testing.B) {
	cases := charzNP1Cases()
	spec := cluster.ConfigA()
	for i := 0; i < b.N; i++ {
		for _, p := range cases {
			if _, ok := fastpath.RunIOR(spec, p); !ok {
				b.Fatalf("fast path bailed on %+v", p)
			}
		}
	}
}
