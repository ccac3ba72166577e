// Package fpfidelity implements the iovet analyzer that keeps the
// analytic fast path honest: internal/fastpath may only *derive* costs
// by calling the sanctioned shared seams — netsim.PathCost, the disksim
// device clocks, fsim's meta/stripe accounting, ior geometry,
// units.TransferTime/BandwidthOf — and may aggregate what they return
// (sums, comparisons, min/max). What it may not do is manufacture a
// cost of its own: convert a raw number into units.Duration/Bandwidth,
// scale a cost with local arithmetic, call a units constructor, or read
// a raw cost constant. Each of those is a re-derived cost expression
// that can drift from the DES formulas it must stay bit-identical to
// (DESIGN.md §11 "bit-exact by construction", §15).
package fpfidelity

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"iophases/internal/analysis/framework"
)

// Analyzer forbids locally-derived cost expressions in the fast path.
var Analyzer = &framework.Analyzer{
	Name: "fpfidelity",
	Doc: "forbid local cost derivation in internal/fastpath\n\n" +
		"The fast path must compute every Duration/Bandwidth through the shared seams\n" +
		"the DES itself uses (netsim.PathCost, disksim clocks, fsim meta/stripe, ior\n" +
		"geometry, units.TransferTime/BandwidthOf); local conversions, scaling\n" +
		"arithmetic, unit constructors and raw cost constants can silently diverge\n" +
		"from the simulation they claim to match bit-exactly (DESIGN.md §11, §15).",
	Run: run,
}

// seamCalls are the units functions the fast path may call: the shared
// cost derivations the DES uses too. Everything else in units that
// returns a cost is a constructor and therefore forbidden here.
var seamCalls = map[string]bool{
	"TransferTime": true,
	"BandwidthOf":  true,
}

const seams = "sanctioned seams (netsim.PathCost, disksim clocks, fsim meta/stripe, ior geometry, units.TransferTime/BandwidthOf)"

// costType reports whether t is one of the cost-carrying named types of
// the units package (matched by package base so corpora opt in).
func costType(t types.Type) (string, bool) {
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || path.Base(obj.Pkg().Path()) != "units" {
		return "", false
	}
	if obj.Name() == "Duration" || obj.Name() == "Bandwidth" {
		return "units." + obj.Name(), true
	}
	return "", false
}

func run(pass *framework.Pass) error {
	if path.Base(pass.Pkg.Path()) != "fastpath" {
		return nil
	}

	report := func(pos token.Pos, msg string) { pass.Reportf(pos, "%s", msg) }

	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := pass.TypesInfo.Types[e]; ok {
			return tv.Type
		}
		return nil
	}
	isCost := func(e ast.Expr) (string, bool) {
		t := typeOf(e)
		if t == nil {
			return "", false
		}
		return costType(t)
	}
	isConst := func(e ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[e]
		return ok && tv.Value != nil
	}
	checkBinary := func(pos token.Pos, op token.Token, x, y ast.Expr) {
		name, xCost := isCost(x)
		if !xCost {
			name, xCost = isCost(y)
		}
		if !xCost {
			return
		}
		switch op {
		case token.MUL, token.QUO, token.REM:
			report(pos, "local arithmetic on "+name+" ("+op.String()+") re-derives a cost: the fast path must take costs from the "+seams)
		case token.ADD, token.SUB:
			if isConst(x) || isConst(y) {
				report(pos, "adjusting "+name+" by a constant re-derives a cost: the fast path must take costs from the "+seams)
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
					if name, ok := costType(tv.Type); ok {
						report(e.Pos(), "conversion to "+name+" constructs a cost from a raw number: the fast path must take costs from the "+seams)
					}
					return true
				}
				fn := calleeFunc(pass.TypesInfo, e)
				if fn == nil || fn.Pkg() == nil || path.Base(fn.Pkg().Path()) != "units" {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					// Methods on cost values (Seconds, String, …) only
					// read them: legal.
					return true
				}
				if seamCalls[fn.Name()] {
					return true
				}
				if sig.Results().Len() == 1 {
					if name, ok := costType(sig.Results().At(0).Type()); ok {
						report(e.Pos(), "units."+fn.Name()+" constructs a "+name+" outside the "+seams)
					}
				}
			case *ast.BinaryExpr:
				checkBinary(e.OpPos, e.Op, e.X, e.Y)
			case *ast.AssignStmt:
				var op token.Token
				switch e.Tok {
				case token.MUL_ASSIGN:
					op = token.MUL
				case token.QUO_ASSIGN:
					op = token.QUO
				case token.REM_ASSIGN:
					op = token.REM
				case token.ADD_ASSIGN:
					op = token.ADD
				case token.SUB_ASSIGN:
					op = token.SUB
				default:
					return true
				}
				if len(e.Lhs) == 1 && len(e.Rhs) == 1 {
					checkBinary(e.TokPos, op, e.Lhs[0], e.Rhs[0])
				}
			}
			return true
		})
	}

	// Raw cost constants (units.Nanosecond … units.Second). Byte-size
	// constants (B, KiB, …) are plain integers — geometry, not costs —
	// and stay legal.
	for ident, obj := range pass.TypesInfo.Uses {
		c, ok := obj.(*types.Const)
		if !ok || c.Pkg() == nil || path.Base(c.Pkg().Path()) != "units" {
			continue
		}
		if name, ok := costType(c.Type()); ok {
			report(ident.Pos(), "units."+c.Name()+" is a raw "+name+" constant: the fast path must take costs from the "+seams)
		}
	}
	return nil
}

// calleeFunc resolves the *types.Func a call expression invokes, if
// any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
