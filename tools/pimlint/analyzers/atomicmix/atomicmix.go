// Package atomicmix flags mixed atomic/plain access to struct fields.
//
// A field accessed through sync/atomic is owned by the atomic
// discipline: one plain load or store racing the atomic ones is a data
// race the race detector only reports when the schedule cooperates.
// The analyzer is whole-program because the mix is usually split
// across packages — the atomic access in the declaring package, the
// plain one in a consumer. Two rules:
//
//   - a field whose address is passed to a sync/atomic function
//     (atomic.AddUint64(&x.f, 1), atomic.LoadInt64(&x.f), ...) must
//     not be read, written, or address-taken anywhere else, except
//     inside init functions and package-level initializers (the
//     pre-concurrency window);
//   - a field of an atomic.* type (atomic.Uint64, atomic.Bool, ...)
//     may only be used as a method receiver — copying or reassigning
//     the value bypasses the atomicity it exists for. These are
//     reported per package, no reachability needed.
//
// There is deliberately no escape hatch: unlike a justified lock-held
// fsync, a racing plain access has no sound variant. Fix it by
// routing the access through sync/atomic or moving it into init.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags fields accessed both through sync/atomic and plainly.
// The rules need no package scoping — mixed atomic access is a bug
// wherever it appears.
var Analyzer = &analysis.Analyzer{Name: "atomicmix", Run: run}

type mix struct {
	*analysis.Pass
	// atomicFields holds the "pkg.Type.field" keys some sync/atomic
	// call takes the address of.
	atomicFields map[string]bool
	// plainUses maps the same keys to every other access outside the
	// pre-concurrency window.
	plainUses map[string][]token.Pos
}

func run(pass *analysis.Pass) {
	m := &mix{pass, make(map[string]bool), make(map[string][]token.Pos)}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						m.scan(pkg.TypesInfo, d.Body, d.Name.Name == "init" && d.Recv == nil)
					}
				case *ast.GenDecl:
					m.scan(pkg.TypesInfo, d, true)
				}
			}
		}
	}
	for key := range m.atomicFields {
		for _, pos := range m.plainUses[key] {
			pass.Reportf(pos, "field %s is accessed through sync/atomic elsewhere; this plain access races with it "+
				"(route it through sync/atomic or move it into init)", key)
		}
	}
}

// scan walks one declaration collecting atomic and plain field
// accesses; isInit marks an init function or package-level initializer.
func (m *mix) scan(info *types.Info, root ast.Node, isInit bool) {
	// sanctioned selectors: &x.f operands of sync/atomic calls, and
	// receivers of atomic.*-type method calls.
	sanctioned := make(map[ast.Expr]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if !isAtomicCall(info, x) {
				return true
			}
			for _, arg := range x.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
					if sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok {
						if key, ok := typeutil.SelectedField(info, sel); ok {
							m.atomicFields[key] = true
							sanctioned[sel] = true
						}
					}
				}
			}
		case *ast.SelectorExpr:
			// c.v.Add(1): the outer selector c.v.Add is a method value on
			// the atomic field; its X is the sanctioned receiver.
			if s, ok := info.Selections[x]; ok && s.Kind() == types.MethodVal {
				if inner, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
					sanctioned[inner] = true
				}
			}
		}
		return true
	})

	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sanctioned[sel] || isInit {
			return true
		}
		key, ok := typeutil.SelectedField(info, sel)
		if !ok {
			return true
		}
		if named, ok := info.Selections[sel].Obj().Type().(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" {
			m.Reportf(sel.Sel.Pos(), "field %s has an atomic type; use its methods instead of plain access", key)
		} else {
			m.plainUses[key] = append(m.plainUses[key], sel.Sel.Pos())
		}
		return true
	})
}

// isAtomicCall reports whether the call targets a sync/atomic
// package-level function.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isSel := info.Selections[sel]; isSel {
		return false // method call, not a qualified identifier
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
