package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
)

// Package is one loaded, parsed and type-checked package — the unit an
// Analyzer runs over.
type Package struct {
	PkgPath   string
	Dir       string
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Snapshot is one driver invocation's view of the module: every matched
// package, loaded once. All analyzers of a run share one Snapshot —
// the `go list` subprocess and the type-check behind it happen exactly
// once per invocation (pinned by TestSingleListInvocationPerRun).
type Snapshot struct {
	Pkgs []*Package
	Fset *token.FileSet
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// listInvocations counts `go list` subprocesses since process start. The
// loader is the dominant cost of an iovet run (it compiles export data
// for the whole dependency closure), so the driver must spawn it once
// per invocation, never once per analyzer; the counter makes that
// property testable (and benchmarkable) instead of aspirational.
var listInvocations atomic.Int64

// ListInvocations reports how many `go list` subprocesses the loader has
// spawned in this process.
func ListInvocations() int64 { return listInvocations.Load() }

// LoadSnapshot resolves patterns (e.g. "./...") relative to dir, parses
// the matched packages' non-test Go files, and type-checks them against
// the compiled export data of their dependencies.
//
// The pipeline is one `go list -export -deps -json` invocation, which
// compiles (or reuses from the build cache) export data for every
// dependency, then go/types with a gc-importer lookup over those files —
// the stdlib equivalent of go/packages.Load(NeedSyntax|NeedTypes|NeedDeps).
// It works fully offline; only the go toolchain is required.
//
// Test files are deliberately excluded: iovet guards the invariants of
// shipped simulation code, and tests routinely (and legitimately) use
// wall-clock timeouts, goroutines and raw channels to exercise it.
func LoadSnapshot(dir string, patterns ...string) (*Snapshot, error) {
	args := append([]string{"list", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	listInvocations.Add(1)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := map[string]string{}
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %v: %s: %s", patterns, p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	// One importer for every target: imported packages are cached, so a
	// dependency shared by many targets is read once.
	imp := importer.ForCompiler(fset, "gc", lookup)

	snap := &Snapshot{Fset: fset}
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		snap.Pkgs = append(snap.Pkgs, &Package{
			PkgPath:   t.ImportPath,
			Dir:       t.Dir,
			Syntax:    files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return snap, nil
}
