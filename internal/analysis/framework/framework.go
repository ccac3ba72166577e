// Package framework is the core of iovet, the repo's static-analysis
// suite. It mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so each checker reads like a standard
// go/analysis analyzer, but is built entirely on the standard library:
// this repo builds offline (no module proxy), so x/tools cannot be a
// dependency. Type information comes from `go list -export` compiled
// export data (see load.go), the same source go/packages uses.
//
// The framework also owns the `//iovet:allow(<analyzer>) <reason>`
// suppression mechanism (suppress.go): a diagnostic may be silenced by
// an allow comment on its line or the line above, the reason is
// mandatory, and malformed or unknown-analyzer allows are themselves
// diagnostics that cannot be suppressed.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant checker. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus the pieces iovet does
// not need (facts, requires, result types).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //iovet:allow(<name>) suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is a summary, the
	// rest explains the invariant the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through the Pass. A non-nil error aborts the whole iovet run —
	// reserve it for "cannot analyze", not for findings.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	report    func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: an invariant violation at a source
// position, attributed to the analyzer that found it.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional
// file:line:col: message [analyzer] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}
