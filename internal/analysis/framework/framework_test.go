package framework_test

import (
	"go/ast"
	"strings"
	"testing"

	"iophases/internal/analysis/analysistest"
	"iophases/internal/analysis/framework"
)

// marker flags every function whose name starts with Flag — a minimal
// deterministic signal to exercise suppression plumbing. It borrows the
// name "detwall" so corpus allow-lists resolve against a known name.
var marker = &framework.Analyzer{
	Name: "detwall",
	Doc:  "test marker: flags Flag* functions",
	Run: func(pass *framework.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Flag") {
					pass.Reportf(fd.Pos(), "marker")
				}
			}
		}
		return nil
	},
}

func TestAllowHygiene(t *testing.T) {
	analysistest.Run(t, "./testdata/src/allows", marker)
}

// TestSuppressionCount pins that silenced findings are counted, not
// lost: the corpus has two valid allows covering two marker findings.
func TestSuppressionCount(t *testing.T) {
	res, err := framework.Run(".", []string{"./testdata/src/allows"},
		[]*framework.Analyzer{marker}, []string{marker.Name})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 2 {
		t.Errorf("Suppressed = %d, want 2", res.Suppressed)
	}
}

// TestMissingReason pins that an allow without a reason is rejected and
// suppresses nothing — the finding it sat above still surfaces.
func TestMissingReason(t *testing.T) {
	res, err := framework.Run(".", []string{"./testdata/src/allowbad"},
		[]*framework.Analyzer{marker}, []string{marker.Name})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawMarker bool
	for _, d := range res.Diagnostics {
		switch {
		case d.Analyzer == framework.AllowAnalyzerName &&
			strings.Contains(d.Message, "the reason is mandatory"):
			sawMalformed = true
		case d.Message == "marker":
			sawMarker = true
		}
	}
	if !sawMalformed {
		t.Errorf("no missing-reason diagnostic in %v", res.Diagnostics)
	}
	if !sawMarker {
		t.Errorf("reasonless allow suppressed the finding below it: %v", res.Diagnostics)
	}
	if res.Suppressed != 0 {
		t.Errorf("Suppressed = %d, want 0", res.Suppressed)
	}
}

// TestLoadRejectsBadPattern pins that loader failures surface as errors
// rather than empty (vacuously clean) results.
func TestLoadRejectsBadPattern(t *testing.T) {
	_, err := framework.Run(".", []string{"./does/not/exist"}, nil, nil)
	if err == nil {
		t.Fatal("expected an error for a nonexistent pattern")
	}
}

// loadCorpus is every framework corpus package, loaded by the
// single-load test and benchmark below.
const loadCorpus = "./testdata/src/..."

// nopAnalyzers returns four analyzers that report nothing.
func nopAnalyzers() ([]*framework.Analyzer, []string) {
	names := []string{"a", "b", "c", "d"}
	analyzers := make([]*framework.Analyzer, len(names))
	for i, name := range names {
		analyzers[i] = &framework.Analyzer{Name: name, Doc: "no-op", Run: func(*framework.Pass) error { return nil }}
	}
	return analyzers, names
}

// TestSingleListInvocationPerRun pins the loader property: one driver
// invocation spawns exactly one `go list` subprocess, no matter how
// many analyzers run over the snapshot.
func TestSingleListInvocationPerRun(t *testing.T) {
	analyzers, names := nopAnalyzers()
	before := framework.ListInvocations()
	if _, err := framework.Run(".", []string{loadCorpus}, analyzers, names); err != nil {
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
	analyzers, names := nopAnalyzers()
	before := framework.ListInvocations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := framework.Run(".", []string{loadCorpus}, analyzers, names); err != nil {
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
