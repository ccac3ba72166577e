package framework_test

import (
	"strings"
	"testing"

	"iophases/internal/analysis/framework"
)

const corpusPrefix = "iophases/internal/analysis/framework/testdata/src/factgraph/"

func loadFactgraph(t testing.TB) *framework.Snapshot {
	t.Helper()
	snap, err := framework.LoadSnapshot(".", "./testdata/src/factgraph/...")
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestFactsCallGraph(t *testing.T) {
	snap := loadFactgraph(t)
	f := snap.Facts

	// Dependency order: helper (the dependency) must precede caller.
	var order []string
	for _, p := range snap.Pkgs {
		order = append(order, strings.TrimPrefix(p.PkgPath, corpusPrefix))
	}
	if len(order) != 2 || order[0] != "helper" || order[1] != "caller" {
		t.Fatalf("packages not in dependency order: %v", order)
	}

	stamp := framework.FuncID(corpusPrefix + "helper.Stamp")
	indirect := framework.FuncID(corpusPrefix + "caller.Indirect")
	mark := framework.FuncID(corpusPrefix + "helper.Gauge.Mark")
	callerInit := framework.FuncID(corpusPrefix + "caller.init")

	calls := func(id framework.FuncID) []framework.FuncID {
		t.Helper()
		fn := f.Funcs[id]
		if fn == nil {
			t.Fatalf("no FuncInfo for %s; have %d funcs", id, len(f.Funcs))
		}
		return fn.Calls
	}
	contains := func(list []framework.FuncID, want framework.FuncID) bool {
		for _, id := range list {
			if id == want {
				return true
			}
		}
		return false
	}

	if !contains(calls(stamp), framework.FuncID("time.Now")) {
		t.Errorf("helper.Stamp calls = %v, want to include time.Now", calls(stamp))
	}
	if !contains(calls(indirect), stamp) {
		t.Errorf("caller.Indirect calls = %v, want to include helper.Stamp (cross-package edge)", calls(indirect))
	}
	if !contains(calls(mark), stamp) {
		t.Errorf("method Gauge.Mark calls = %v, want to include helper.Stamp", calls(mark))
	}
	if !contains(calls(callerInit), stamp) {
		t.Errorf("synthetic caller.init calls = %v, want to include helper.Stamp", calls(callerInit))
	}

	// Callee metadata exists even for functions with no loaded body.
	meta, ok := f.Callees["time.Now"]
	if !ok || meta.PkgPath != "time" || meta.Name != "Now" || meta.Recv {
		t.Errorf("Callees[time.Now] = %+v, ok=%v", meta, ok)
	}
}

func TestReaches(t *testing.T) {
	snap := loadFactgraph(t)
	f := snap.Facts
	seeds := map[framework.FuncID]string{"time.Now": "wall clock"}

	t.Run("no barrier", func(t *testing.T) {
		reach := f.Reaches(seeds, nil)
		for _, name := range []string{"helper.Stamp", "helper.Seam", "helper.Gauge.Mark",
			"caller.Indirect", "caller.TwoHops", "caller.ViaSeam", "caller.init"} {
			if reach[framework.FuncID(corpusPrefix+name)] == nil {
				t.Errorf("%s should reach time.Now", name)
			}
		}
		for _, name := range []string{"helper.Clean", "caller.Pure"} {
			if c := reach[framework.FuncID(corpusPrefix+name)]; c != nil {
				t.Errorf("%s should not reach time.Now (chain %v)", name, c.Path)
			}
		}
		// TwoHops' witness chain is Indirect → Stamp → time.Now.
		c := reach[framework.FuncID(corpusPrefix+"caller.TwoHops")]
		got := c.Render(framework.FuncID(corpusPrefix+"caller.TwoHops"), corpusPrefix)
		want := "caller.TwoHops -> caller.Indirect -> helper.Stamp -> time.Now"
		if got != want {
			t.Errorf("chain = %q, want %q", got, want)
		}
	})

	t.Run("seam barrier", func(t *testing.T) {
		reach := f.Reaches(seeds, func(fn *framework.FuncInfo) bool {
			return fn.ID == framework.FuncID(corpusPrefix+"helper.Seam")
		})
		if reach[framework.FuncID(corpusPrefix+"caller.ViaSeam")] != nil {
			t.Error("barrier on helper.Seam should keep caller.ViaSeam clean")
		}
		if reach[framework.FuncID(corpusPrefix+"caller.Indirect")] == nil {
			t.Error("barrier on helper.Seam must not block the Stamp route")
		}
	})
}

// TestSingleListInvocationPerRun pins the tentpole loader property: one
// driver invocation spawns exactly one `go list` subprocess, no matter
// how many analyzers run over the snapshot.
func TestSingleListInvocationPerRun(t *testing.T) {
	nop := func(name string) *framework.Analyzer {
		return &framework.Analyzer{
			Name: name,
			Doc:  "no-op",
			Init: func(*framework.Facts) (any, error) { return nil, nil },
			Run:  func(*framework.Pass) error { return nil },
		}
	}
	analyzers := []*framework.Analyzer{nop("a"), nop("b"), nop("c"), nop("d")}
	before := framework.ListInvocations()
	if _, err := framework.Run(".", []string{"./testdata/src/factgraph/..."}, analyzers, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	if got := framework.ListInvocations() - before; got != 1 {
		t.Errorf("driver run spawned %d `go list` subprocesses, want exactly 1", got)
	}
}

// BenchmarkDriverSingleLoad benchmarks a full driver invocation with
// four analyzers over the corpus and reports go-list subprocesses per
// operation — the metric must stay at 1.00 (the loader is the dominant
// cost of an iovet run; a per-analyzer reload would quadruple it here).
func BenchmarkDriverSingleLoad(b *testing.B) {
	nop := func(name string) *framework.Analyzer {
		return &framework.Analyzer{Name: name, Doc: "no-op", Run: func(*framework.Pass) error { return nil }}
	}
	analyzers := []*framework.Analyzer{nop("a"), nop("b"), nop("c"), nop("d")}
	before := framework.ListInvocations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Run(".", []string{"./testdata/src/factgraph/..."}, analyzers, []string{"a", "b", "c", "d"}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := framework.ListInvocations() - before
	b.ReportMetric(float64(delta)/float64(b.N), "go-list/op")
	if delta != int64(b.N) {
		b.Fatalf("%d driver runs spawned %d `go list` subprocesses, want one each", b.N, delta)
	}
}
