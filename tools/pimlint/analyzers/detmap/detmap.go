// Package detmap flags `range` over map values inside the simulator's
// deterministic packages. Go randomizes map iteration order, so any map
// range in a per-cycle path can silently break the "same seed + same
// schedule = identical numbers" contract the reproduction advertises.
//
// A flagged loop has three outs:
//
//   - restructure onto an index-ordered slice (the preferred fix for
//     hot paths);
//   - make the body a commutative fold — every statement only
//     accumulates with +=, |=, ^=, *=, ++/--, or a min/max fold —
//     which the analyzer proves order-insensitive and allows;
//   - annotate the statement with a `//pimlint:ordered` comment (same
//     line or the line above) after making the iteration order
//     explicitly sorted; the annotation is an audited claim, not an
//     escape hatch, and reviewers treat it as such.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags range-over-map in deterministic simulator packages.
// //pimlint:ordered marks a map range whose iteration order has been
// made deterministic by hand (e.g. keys sorted into a slice first).
var Analyzer = &analysis.Analyzer{Name: "detmap", Marker: "ordered", Run: run}

func run(pass *analysis.Pass) {
	pass.Inspect(lintcfg.DeterministicPackages, func(pkg *analysis.Package, n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pkg.TypesInfo.TypeOf(rng.X); t == nil {
			return true
		} else if _, isMap := t.Underlying().(*types.Map); !isMap || commutativeFold(rng.Body) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"range over map %s in deterministic package %s: iteration order is randomized; use an index-ordered slice, a commutative fold, or sort keys and annotate //pimlint:ordered",
			exprString(rng.X), pkg.Path)
		return true
	})
}

// commutativeFold reports whether every statement of a loop body is an
// order-insensitive accumulation: counter bumps (x++/x--), commutative
// compound assignments (+=, |=, ^=, *=), min/max folds via the builtins
// (x = min(x, e) / x = max(x, e)), or the if-guarded min/max idiom
// (if e < x { x = e }). Any other statement — appends, sends, calls,
// non-commutative updates — makes the result depend on visit order.
func commutativeFold(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false // an empty body hides nothing, but flags nothing either way; treat as non-fold
	}
	for _, stmt := range body.List {
		if !commutativeStmt(stmt) {
			return false
		}
	}
	return true
}

func commutativeStmt(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return commutativeAssign(s)
	case *ast.IfStmt:
		return minMaxGuard(s)
	}
	return false
}

func commutativeAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN:
		return true
	case token.ASSIGN:
		// x = min(x, e) / x = max(x, e) with the builtin min/max.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || (fn.Name != "min" && fn.Name != "max") {
			return false
		}
		for _, arg := range call.Args {
			if typeutil.SameExpr(arg, s.Lhs[0]) {
				return true
			}
		}
		return false
	}
	return false
}

// minMaxGuard recognizes `if a OP b { x = y }` where OP is an ordering
// comparison and {x, y} are exactly the compared operands — the
// hand-written min/max fold.
func minMaxGuard(s *ast.IfStmt) bool {
	if s.Init != nil || s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	cmp, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	l, r := asg.Lhs[0], asg.Rhs[0]
	return (typeutil.SameExpr(l, cmp.X) && typeutil.SameExpr(r, cmp.Y)) ||
		(typeutil.SameExpr(l, cmp.Y) && typeutil.SameExpr(r, cmp.X))
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "expression"
}
