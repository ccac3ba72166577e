// Package procblock implements the iovet analyzer that keeps real
// blocking primitives out of des.Proc bodies.
//
// The coroutine engine hands control to exactly one process at a time:
// a process that blocks runs the event loop itself and, unless its own
// resume is next, yields the next process due to Run, which resumes that
// process's coroutine. A Proc body that blocks on a raw channel, a
// sync.Mutex, a WaitGroup or real time escapes that handoff — the engine
// believes the process is running while its coroutine is actually parked
// in the runtime, which wedges the simulation or races it (DESIGN.md §5).
// Inside a Proc body the legal blocking operations are the virtual ones:
// Proc.Sleep, Proc.Park, Proc.Fork and the des.Resource / des.Barrier
// abstractions built on them.
//
// A "Proc body" is any function or function literal with a *des.Proc
// parameter — the engine's Spawn contract — including function literals
// nested inside one (they execute in the proc's coroutine).
// Package des itself is exempt: it implements the primitives.
package procblock

import (
	"go/ast"
	"go/types"
	"strings"

	"iophases/internal/analysis/framework"
)

// Analyzer flags real blocking primitives inside des.Proc bodies.
var Analyzer = &framework.Analyzer{
	Name: "procblock",
	Doc: "forbid raw channel ops, sync primitives, goroutine spawns and time.Sleep in des.Proc bodies\n\n" +
		"Blocking outside the coroutine engine wedges or races the deterministic\n" +
		"scheduler; use Proc.Sleep/Park and the des synchronization types.",
	Run: run,
}

// blockingMethods maps sync type name -> method names that block (or
// pair with blocking, for Lock/Unlock symmetry).
var blockingMethods = map[string]map[string]bool{
	"Mutex":     {"Lock": true, "Unlock": true},
	"RWMutex":   {"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true},
	"WaitGroup": {"Wait": true},
	"Cond":      {"Wait": true},
	"Once":      {"Do": true},
}

func run(pass *framework.Pass) error {
	// The engine package implements the handoff itself.
	if path := pass.Pkg.Path(); path == "iophases/internal/des" || strings.HasSuffix(path, "/des") {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && hasProcParam(pass, fn.Type) {
					checkProcBody(pass, fn.Body)
					return false
				}
			case *ast.FuncLit:
				if hasProcParam(pass, fn.Type) {
					checkProcBody(pass, fn.Body)
					return false
				}
			}
			return true
		})
	}
	return nil
}

// hasProcParam reports whether the function type takes a *des.Proc.
func hasProcParam(pass *framework.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Path() == "iophases/internal/des" {
			return true
		}
	}
	return false
}

// checkProcBody flags blocking primitives anywhere in a proc body,
// including nested function literals (they run in the proc's coroutine).
func checkProcBody(pass *framework.Pass, body *ast.BlockStmt) {
	const fix = "bypasses the coroutine engine (use Proc.Sleep/Park/Fork or des.Resource/Barrier)"
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send inside a des.Proc body %s", fix)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.OpPos, "channel receive inside a des.Proc body %s", fix)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Select, "select inside a des.Proc body %s", fix)
		case *ast.GoStmt:
			pass.Reportf(n.Go, "raw goroutine spawned inside a des.Proc body %s; use Engine.Spawn", fix)
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.For, "range over a channel inside a des.Proc body %s", fix)
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, fix)
		}
		return true
	})
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, fix string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return
	}
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		if f.Pkg().Path() == "time" && f.Name() == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep inside a des.Proc body blocks real time, not virtual time; use Proc.Sleep")
		}
		return
	}
	if f.Pkg().Path() != "sync" {
		return
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	if methods, ok := blockingMethods[named.Obj().Name()]; ok && methods[f.Name()] {
		pass.Reportf(call.Pos(), "sync.%s.%s inside a des.Proc body %s", named.Obj().Name(), f.Name(), fix)
	}
}
