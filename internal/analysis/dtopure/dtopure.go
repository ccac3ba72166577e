// Package dtopure implements the iovet analyzer that keeps the serve
// layer's request/response DTOs deterministic-marshal-safe. The daemon
// promises byte-identical responses for identical requests (DESIGN.md
// §13) — a promise encoding/json can only keep for value shapes it
// renders deterministically. Three field shapes break it: maps (JSON
// object key order follows map iteration... Go sorts them, but nested
// map values still admit NaN/float formatting drift and, worse, make
// responses depend on insertion history for non-string keys), interface
// fields (the dynamic type escapes review and can smuggle any of the
// others), and time.Time (a wall-clock read pretending to be data — the
// serve clock seam exists precisely so timestamps never reach a body).
// Channels and funcs don't marshal at all and fail at runtime.
//
// A DTO is any exported struct in an internal/serve package with at
// least one json-tagged field; the check recurses through the field
// types, so a violation buried in a nested helper struct surfaces at
// the DTO field that pulls it in.
package dtopure

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"

	"iophases/internal/analysis/framework"
)

// Analyzer forbids nondeterministic-marshal field shapes in serve DTOs.
var Analyzer = &framework.Analyzer{
	Name: "dtopure",
	Doc: "require serve DTO structs to be deterministic-marshal-safe\n\n" +
		"Request/response structs (exported, json-tagged) may not contain maps,\n" +
		"interface fields, time.Time, channels or funcs — the shapes that break the\n" +
		"byte-identical-responses invariant of DESIGN.md §13 or fail to marshal at\n" +
		"all.",
	Run: run,
}

func run(pass *framework.Pass) error {
	if path.Base(pass.Pkg.Path()) != "serve" {
		return nil
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !isDTO(st) {
					continue
				}
				for _, field := range st.Fields.List {
					t := pass.TypesInfo.Types[field.Type].Type
					if t == nil {
						continue
					}
					names := fieldNames(field)
					if why, via := unsafeShape(t, nil); why != "" {
						where := ""
						if via != "" {
							where = " (via " + via + ")"
						}
						pass.Reportf(field.Pos(), "%s.%s%s: %s — DTOs must stay deterministic-marshal-safe (DESIGN.md §13)",
							ts.Name.Name, names, where, why)
					}
				}
			}
		}
	}
	return nil
}

// isDTO reports whether the struct carries at least one json-tagged
// field — the marker that it is (part of) a wire shape.
func isDTO(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag != nil && strings.Contains(f.Tag.Value, `json:`) {
			return true
		}
	}
	return false
}

// fieldNames joins a field declaration's names (embedded fields have
// none; render the type instead via "embedded").
func fieldNames(f *ast.Field) string {
	if len(f.Names) == 0 {
		return "(embedded)"
	}
	names := make([]string, len(f.Names))
	for i, n := range f.Names {
		names[i] = n.Name
	}
	return strings.Join(names, ",")
}

// unsafeShape reports why a type (or anything reachable through it) is
// not deterministic-marshal-safe, plus the access path that reaches the
// offending shape. An empty why means the type is safe.
func unsafeShape(t types.Type, seen []*types.Named) (why, path string) {
	switch u := t.(type) {
	case *types.Pointer:
		return unsafeShape(u.Elem(), seen)
	case *types.Slice:
		return unsafeShape(u.Elem(), seen)
	case *types.Array:
		return unsafeShape(u.Elem(), seen)
	case *types.Map:
		return "map fields break deterministic marshaling", ""
	case *types.Chan:
		return "channels do not marshal", ""
	case *types.Signature:
		return "funcs do not marshal", ""
	case *types.Interface:
		return "interface fields hide the marshaled dynamic type", ""
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Time" {
			return "time.Time is a wall-clock value; serialize explicit units (seconds, ns) instead", ""
		}
		for _, s := range seen {
			if s == u {
				return "", ""
			}
		}
		seen = append(seen, u)
		if st, ok := u.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() {
					continue // unexported fields never marshal
				}
				if why, p := unsafeShape(fld.Type(), seen); why != "" {
					hop := obj.Name() + "." + fld.Name()
					if p != "" {
						hop += " -> " + p
					}
					return why, hop
				}
			}
			return "", ""
		}
		return unsafeShape(u.Underlying(), seen)
	}
	return "", ""
}
