package iophases_test

// Black-box tests of the public API: the facade must be usable by an
// external consumer (this file imports only the root package and stdlib).

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"iophases"
)

func TestConfigsComplete(t *testing.T) {
	cfgs := iophases.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	for _, name := range []string{"configA", "configB", "configC", "finisterrae"} {
		cfg, ok := iophases.ConfigByName(name)
		if !ok || cfg.Name != name {
			t.Fatalf("config %q missing", name)
		}
	}
}

func TestWorkflowMadbench(t *testing.T) {
	params := iophases.DefaultMADBench()
	params.RS = 4 << 20
	run := iophases.TraceMADBench2(iophases.ConfigA(), 8, params, iophases.RunOptions{})
	if run.Set == nil || run.Elapsed <= 0 {
		t.Fatal("no trace")
	}
	m := iophases.Extract(run.Set)
	if len(m.Phases) != 5 {
		t.Fatalf("phases %d", len(m.Phases))
	}
	est, err := iophases.EstimateTime(m, iophases.ConfigB())
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalCH <= 0 {
		t.Fatal("no estimate")
	}
	groups, err := iophases.CompareByFamily(est, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(groups); got != 5 {
		t.Fatalf("groups %d", got)
	}
}

func TestWorkflowModelPersistence(t *testing.T) {
	run := iophases.TraceBTIO(iophases.ConfigA(), 4,
		iophases.DefaultBTIO(iophases.ClassW), iophases.RunOptions{})
	m := iophases.Extract(run.Set)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := iophases.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.SameShape(m) {
		t.Fatal("persistence changed the model")
	}
}

// TestLoadModelRejectsMalformed pins the model-file boundary: a phase
// with no operations, with np 0, with a negative request size (from a
// trace row whose RequestSize is -5), with a replay file extent past
// int64 or with a replay pass past a per-pass cap is a load error naming
// the file and the phase, not a panic or a days-long simulation later in
// prediction.
func TestLoadModelRejectsMalformed(t *testing.T) {
	params := iophases.DefaultMADBench()
	params.RS = 1 << 20
	traced := func() *iophases.TraceSet {
		return iophases.TraceMADBench2(iophases.ConfigA(), 4, params, iophases.RunOptions{}).Set
	}
	valid, negative := traced(), traced()
	for i, ev := range negative.Events[0] {
		if ev.Op.IsWrite() {
			negative.Events[0][i].Size = -5
			break
		}
	}
	cases := []struct {
		name string
		set  *iophases.TraceSet
		edit func(m *iophases.Model)
		want string // "" = accepted
	}{
		{"valid", valid, func(*iophases.Model) {}, ""},
		{"no ops", valid, func(m *iophases.Model) { m.Phases[0].Ops = m.Phases[0].Ops[:0] }, "model phase 1: no operations"},
		{"np 0", valid, func(m *iophases.Model) { m.Phases[1].NP = 0 }, "model phase 2: np 0"},
		{"negative request size", negative, func(*iophases.Model) {}, "model phase 1: ior: b=-5 t=-5 s=1"},
		{"extent past int64", valid, func(m *iophases.Model) {
			m.Phases[0].Ops[0].Size, m.Phases[0].Rep = 1<<62, 1
		}, "model phase 1: ior: file extent b=4611686018427387904 × np=4 × s=1 overflows int64"},
		{"volume past MaxPassBytes", valid, func(m *iophases.Model) {
			m.Phases[0].Ops[0].Size, m.Phases[0].Weight = 1<<20, 4*(256<<30+1<<20)
		}, "model phase 1: ior: pass volume b=274878955520 × np=4 × s=1 exceeds MaxPassBytes (1099511627776)"},
		{"transfers past MaxPassTransfers", valid, func(m *iophases.Model) {
			m.Phases[0].Ops[0].Size, m.Phases[0].Weight = 4<<10, 4*(4<<30+4<<10)
		}, "model phase 1: ior: pass transfers b/t=1048577 × np=4 × s=1 exceed MaxPassTransfers (4194304)"},
		// A weight that disagrees with rep·Σsize·np: the IOR replay reads
		// the weight, the faithful replay and co-execution loop rep times.
		{"negative weight", valid, func(m *iophases.Model) { m.Phases[0].Weight = -5 },
			"model phase 1: weight -5, want rep·Σsize·np = 33554432"},
		{"rep past weight", valid, func(m *iophases.Model) { m.Phases[1].Rep = 1 << 22 },
			"model phase 2: weight 8388608, want rep·Σsize·np = 17592186044416"},
	}
	for _, tc := range cases {
		m := iophases.Extract(tc.set)
		tc.edit(m)
		path := filepath.Join(t.TempDir(), "m.json")
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err := iophases.LoadModel(path)
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

func TestTraceSetPersistence(t *testing.T) {
	run := iophases.TraceMADBench2(iophases.ConfigB(), 4, iophases.MADBenchParams{
		NBin: 4, RS: 1 << 20, FileName: "/m", BusyWork: 1e6,
	}, iophases.RunOptions{})
	dir := filepath.Join(t.TempDir(), "tr")
	if err := run.Set.Save(dir); err != nil {
		t.Fatal(err)
	}
	m1 := iophases.Extract(run.Set)
	set2, err := iophases.LoadTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !iophases.Extract(set2).SameShape(m1) {
		t.Fatal("trace round trip changed the model")
	}
}

func TestCustomProgramThroughPublicSurface(t *testing.T) {
	prog := func(sys *iophases.System) func(r *iophases.Rank) {
		return func(r *iophases.Rank) {
			f := sys.Open(r, "/custom", iophases.SharedFile)
			f.SetView(r, 0, 8, iophases.Vector{
				Block:  4096,
				Stride: int64(r.Size()) * 4096,
				Phase:  int64(r.ID()) * 4096,
			})
			f.WriteAtAll(r, 0, 64*1024)
			f.Close(r)
		}
	}
	run := iophases.Trace(iophases.ConfigA(), 4, "custom", prog, iophases.RunOptions{Trace: true})
	m := iophases.Extract(run.Set)
	if m.AccessMode != "strided" || !m.Collective {
		t.Fatalf("metadata %+v", m)
	}
	w, _ := m.TotalBytes()
	if w != 4*64*1024 {
		t.Fatalf("volume %d", w)
	}
}

func TestROMSWorkflow(t *testing.T) {
	p := iophases.DefaultROMS()
	p.Steps = 8
	p.RestartEvery = 4 // keep the restart file in the shortened run
	run := iophases.TraceROMS(iophases.ConfigB(), 4, p, iophases.RunOptions{})
	m := iophases.Extract(run.Set)
	if len(m.Files) < 2 {
		t.Fatalf("files %d; ROMS must open several", len(m.Files))
	}
	est, err := iophases.EstimateTime(m, iophases.ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalCH <= 0 {
		t.Fatal("no estimate")
	}
}

func TestExplorePublicSurface(t *testing.T) {
	run := iophases.TraceBTIO(iophases.ConfigA(), 4,
		iophases.DefaultBTIO(iophases.ClassW), iophases.RunOptions{})
	m := iophases.Extract(run.Set)
	results, err := iophases.Explore(m, iophases.StandardVariants(iophases.ConfigA()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 6 {
		t.Fatalf("results %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Total < results[i-1].Total {
			t.Fatal("not sorted")
		}
	}
}

func TestRelativeErrorAndUsageExposed(t *testing.T) {
	if iophases.RelativeError(110, 100) != 10 {
		t.Fatal("relative error")
	}
	if u := iophases.Usage(50, 200); u != 25 {
		t.Fatalf("usage %v", u)
	}
}

// Example demonstrates the full characterize → model → predict workflow.
func Example() {
	params := iophases.DefaultMADBench()
	params.RS = 1 << 20 // scale down for the example

	run := iophases.TraceMADBench2(iophases.ConfigA(), 8, params, iophases.RunOptions{})
	model := iophases.Extract(run.Set)
	fmt.Printf("phases: %d, access mode: %s\n", len(model.Phases), model.AccessMode)

	best, choices, err := iophases.SelectConfig(model,
		[]iophases.Config{iophases.ConfigA(), iophases.ConfigB()})
	if err != nil {
		fmt.Println("select:", err)
		return
	}
	_ = choices
	fmt.Printf("configurations compared: 2, best exists: %v\n", best >= 0)
	// Output:
	// phases: 5, access mode: sequential
	// configurations compared: 2, best exists: true
}

// ExampleExtract shows phase extraction on BT-IO.
func ExampleExtract() {
	run := iophases.TraceBTIO(iophases.ConfigA(), 4,
		iophases.DefaultBTIO(iophases.ClassW), iophases.RunOptions{})
	model := iophases.Extract(run.Set)
	last := model.Phases[len(model.Phases)-1]
	fmt.Printf("write phases: %d\n", len(model.Phases)-1)
	fmt.Printf("read phase rep: %d\n", last.Rep)
	fmt.Printf("offset fn: %s\n", model.Phases[0].OffsetExpr)
	// Output:
	// write phases: 10
	// read phase rep: 10
	// offset fn: rs*idP + 4*rs*(ph-1)
}

// ExampleRescale derives a 16-process model from a 4-process trace.
func ExampleRescale() {
	run := iophases.TraceBTIO(iophases.ConfigA(), 4,
		iophases.DefaultBTIO(iophases.ClassW), iophases.RunOptions{})
	m4 := iophases.Extract(run.Set)
	m16, err := iophases.Rescale(m4, 16)
	if err != nil {
		fmt.Println("rescale:", err)
		return
	}
	fmt.Printf("np: %d -> %d, phases: %d, volume preserved: %v\n",
		m4.NP, m16.NP, len(m16.Phases), func() bool {
			w4, _ := m4.TotalBytes()
			w16, _ := m16.TotalBytes()
			return w4 == w16
		}())
	// Output:
	// np: 4 -> 16, phases: 11, volume preserved: true
}

// ExampleExplore sweeps hypothetical storage designs for a model.
func ExampleExplore() {
	run := iophases.TraceBTIO(iophases.ConfigA(), 4,
		iophases.DefaultBTIO(iophases.ClassW), iophases.RunOptions{})
	m := iophases.Extract(run.Set)
	results, err := iophases.Explore(m, iophases.StandardVariants(iophases.ConfigA()))
	if err != nil {
		fmt.Println("explore:", err)
		return
	}
	fmt.Printf("variants ranked: %d; best is cheapest: %v\n",
		len(results), results[0].Total <= results[len(results)-1].Total)
	// Output:
	// variants ranked: 8; best is cheapest: true
}
