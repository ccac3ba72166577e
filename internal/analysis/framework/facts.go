// facts.go is phase 1 of the two-phase driver: after the loader has
// parsed and type-checked every matched package (in dependency order),
// buildFacts walks all of them once and derives module-wide facts the
// phase-2 analyzers consume — a call graph over every function body and
// a generic reachability/taint propagator over the graph.
//
// Identity across packages is by name, not by types.Object: each target
// package type-checks against its dependencies' *export data*, so the
// same function seen from two packages is two distinct objects. FuncID
// ("pkgpath.Name" or "pkgpath.Recv.Name") collapses those views into
// one node per function.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// FuncID names one function module-wide: "pkgpath.Name" for package
// functions, "pkgpath.Recv.Name" for methods (pointer receivers
// dereferenced, so (*T).M and T.M are one node).
type FuncID string

// FuncIDOf derives the FuncID of a types.Func, regardless of which
// package's type-check produced it.
func FuncIDOf(f *types.Func) FuncID {
	pkg := ""
	if p := f.Pkg(); p != nil {
		pkg = p.Path()
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return FuncID(pkg + "." + n.Obj().Name() + "." + f.Name())
		}
		// Interface methods and other anonymous receivers: keyed by
		// method name only; callers treat these as opaque (no body).
		return FuncID(pkg + ".(recv)." + f.Name())
	}
	return FuncID(pkg + "." + f.Name())
}

// CalleeMeta describes a function referenced from some loaded body,
// whether or not its own body was loaded (stdlib and import-only
// dependencies have no FuncInfo, only a CalleeMeta).
type CalleeMeta struct {
	PkgPath string
	Name    string
	Recv    bool // method (has a receiver)
}

// FuncInfo is the phase-1 record of one function whose body was loaded.
type FuncInfo struct {
	ID      FuncID
	PkgPath string
	PkgBase string // final import-path element (simpkgs-style scoping)
	File    string // base name of the declaring file
	Pos     token.Pos
	// Calls lists every function referenced from the body, deduplicated,
	// in first-occurrence order. References count, not just call
	// expressions: a function assigned to a variable and invoked later
	// still taints its user (conservative for reachability analyses).
	Calls []FuncID
}

// Facts is the module-wide phase-1 product shared by every analyzer of a
// driver run.
type Facts struct {
	// Funcs maps every loaded function (and one synthetic
	// "pkgpath.init" node per package covering package-level variable
	// initializers) to its call-graph record.
	Funcs map[FuncID]*FuncInfo
	// Callees records identity metadata for every FuncID referenced
	// anywhere, including functions with no loaded body.
	Callees map[FuncID]CalleeMeta
}

// Chain is one function's witness that it reaches a seed: Why is the
// seed's description, Path the call chain below the function — its
// tainted callee first, the seed last. A seed's own Chain has an empty
// Path.
type Chain struct {
	Why  string
	Path []FuncID
}

// Render formats the chain as "fn → hop → seed", trimming a module
// prefix for brevity.
func (c *Chain) Render(from FuncID, trimPrefix string) string {
	parts := make([]string, 0, len(c.Path)+1)
	for _, id := range append([]FuncID{from}, c.Path...) {
		parts = append(parts, strings.TrimPrefix(string(id), trimPrefix))
	}
	return strings.Join(parts, " -> ")
}

// Reaches propagates seed attributes up the call graph: a function
// reaches a seed when it references (directly or transitively) a seeded
// function. barrier, when non-nil, marks loaded functions whose taint
// must not propagate further — sanctioned seams whose callers are clean
// by design. The result maps every reaching FuncID (seeds included) to
// a shortest witness chain; BFS from the seeds with sorted frontiers
// makes the chains deterministic across runs.
func (f *Facts) Reaches(seeds map[FuncID]string, barrier func(*FuncInfo) bool) map[FuncID]*Chain {
	// Reverse adjacency over the loaded bodies.
	rev := map[FuncID][]FuncID{}
	for id, fn := range f.Funcs {
		for _, callee := range fn.Calls {
			rev[callee] = append(rev[callee], id)
		}
	}
	for _, callers := range rev {
		sort.Slice(callers, func(i, j int) bool { return callers[i] < callers[j] })
	}

	out := map[FuncID]*Chain{}
	frontier := make([]FuncID, 0, len(seeds))
	for id, why := range seeds {
		// A barrier function that is itself a seed stays a dead end: its
		// own record exists (callers may ask), but it never propagates.
		out[id] = &Chain{Why: why}
		frontier = append(frontier, id)
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })

	for len(frontier) > 0 {
		var next []FuncID
		for _, id := range frontier {
			if fn := f.Funcs[id]; fn != nil && barrier != nil && barrier(fn) {
				continue
			}
			reached := out[id]
			for _, caller := range rev[id] {
				if _, seen := out[caller]; seen {
					continue
				}
				if fn := f.Funcs[caller]; fn != nil && barrier != nil && barrier(fn) {
					continue
				}
				path := make([]FuncID, 0, len(reached.Path)+1)
				path = append(append(path, id), reached.Path...)
				out[caller] = &Chain{Why: reached.Why, Path: path}
				next = append(next, caller)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}
	return out
}

// buildFacts derives the module-wide facts from a loaded snapshot. One
// AST pass per package: function declarations contribute call-graph
// nodes, and package-level value specs fold into a synthetic init node.
func buildFacts(snap *Snapshot) *Facts {
	f := &Facts{
		Funcs:   map[FuncID]*FuncInfo{},
		Callees: map[FuncID]CalleeMeta{},
	}
	for _, pkg := range snap.Pkgs {
		base := pkg.PkgPath
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		for _, file := range pkg.Syntax {
			fileBase := filepath.Base(snap.Fset.Position(file.Pos()).Filename)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					info := &FuncInfo{
						ID:      FuncIDOf(obj),
						PkgPath: pkg.PkgPath,
						PkgBase: base,
						File:    fileBase,
						Pos:     d.Pos(),
					}
					f.collectCalls(pkg, d.Body, info)
					f.Funcs[info.ID] = info
				case *ast.GenDecl:
					// Package-level initializers (composite literals
					// registering callbacks, etc.) fold into one
					// synthetic init node per package.
					if d.Tok == token.VAR {
						init := f.initNode(pkg, base, d.Pos())
						for _, spec := range d.Specs {
							vs, ok := spec.(*ast.ValueSpec)
							if !ok {
								continue
							}
							for _, v := range vs.Values {
								f.collectCalls(pkg, v, init)
							}
						}
					}
				}
			}
		}
	}
	return f
}

// initNode returns (creating on first use) the package's synthetic init
// call-graph node.
func (f *Facts) initNode(pkg *Package, base string, pos token.Pos) *FuncInfo {
	id := FuncID(pkg.PkgPath + ".init")
	if fn, ok := f.Funcs[id]; ok {
		return fn
	}
	fn := &FuncInfo{ID: id, PkgPath: pkg.PkgPath, PkgBase: base, Pos: pos}
	f.Funcs[id] = fn
	return fn
}

// collectCalls records every function referenced from node into info.
func (f *Facts) collectCalls(pkg *Package, node ast.Node, info *FuncInfo) {
	seen := map[FuncID]bool{}
	for _, id := range info.Calls {
		seen[id] = true
	}
	ast.Inspect(node, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pkg.TypesInfo.Uses[ident].(*types.Func)
		if !ok {
			return true
		}
		id := FuncIDOf(fn)
		if id == info.ID || seen[id] {
			return true
		}
		seen[id] = true
		info.Calls = append(info.Calls, id)
		if _, ok := f.Callees[id]; !ok {
			pkgPath := ""
			if p := fn.Pkg(); p != nil {
				pkgPath = p.Path()
			}
			sig, _ := fn.Type().(*types.Signature)
			f.Callees[id] = CalleeMeta{
				PkgPath: pkgPath,
				Name:    fn.Name(),
				Recv:    sig != nil && sig.Recv() != nil,
			}
		}
		return true
	})
}
