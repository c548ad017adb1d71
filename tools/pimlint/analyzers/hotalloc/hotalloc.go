// Package hotalloc flags allocation-causing constructs in functions
// reachable from the simulator's per-cycle hot-path roots.
//
// The per-cycle path — System.advance -> Kernel.Tick ->
// generators -> NoC -> caches -> Controller.Tick -> DRAM/sched —
// executes hundreds of millions of times per campaign; a single heap
// allocation there dominates wall clock long before any profiler is
// pointed at it. This analyzer makes the zero-alloc contract static: on
// the program's call graph (tools/pimlint/callgraph) it computes the
// set of functions reachable from lintcfg.HotPathRoots, and inside
// reachable functions belonging to lintcfg.HotPathPackages flags:
//
//   - make and new calls, and map/slice composite literals;
//   - address-taken composite literals (&T{...});
//   - calls into fmt, string concatenation, and string<->[]byte
//     conversions;
//   - function literals, method values, and goroutine launches;
//   - implicit interface conversions of non-pointer values (boxing);
//   - append calls that extend a different slice than they assign;
//     the self-append idiom x = append(x, ...) over a preallocated
//     buffer is the sanctioned pattern, and its runtime behavior is
//     locked in by the allocation-counting regression tests.
//
// The escape hatch is a //pimlint:coldpath comment on the construct's
// line or the line above. Annotated lines are doubly excused: their
// diagnostics are suppressed and their call edges are pruned from the
// reachability walk, so an epoch-gated sampling branch or a panic
// message does not drag its callees into the hot set. The annotation is
// an audited claim — the reviewer contract is that the annotated
// statement is provably off the per-cycle steady-state path (setup,
// teardown, a guarded failure path, or an epoch boundary).
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags allocation-causing constructs reachable from the
// hot-path roots. //pimlint:coldpath marks a line as off the per-cycle
// path.
var Analyzer = &analysis.Analyzer{Name: "hotalloc", Marker: "coldpath", Run: run}

func run(pass *analysis.Pass) {
	// A function whose declaration line is annotated is cold in its
	// entirety and does not extend reachability; neither does a call on
	// an annotated line. No root resolving is the normal case for
	// partial invocations (linting a single cold package): nothing is
	// hot.
	var roots []*callgraph.Func
	for _, fn := range pass.Roots(lintcfg.HotPathRoots) {
		if !pass.Covered(fn.Decl.Pos()) {
			roots = append(roots, fn)
		}
	}
	reached := pass.Reachable(roots, func(site token.Pos, callee *callgraph.Func) bool {
		return pass.Covered(site) || pass.Covered(callee.Decl.Pos())
	})
	for _, fn := range reached {
		if pass.Cfg.Covers(lintcfg.HotPathPackages, fn.Pkg.Path()) {
			checkFunc(pass, fn)
		}
	}
}

// checkFunc walks one hot function's body flagging allocation sites.
func checkFunc(pass *analysis.Pass, n *callgraph.Func) {
	info := n.Info
	diag := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, "%s in hot-path function %s; preallocate, hoist, or annotate //pimlint:coldpath",
			fmt.Sprintf(format, args...), n.Obj.Name())
	}

	// Pre-pass: record which call has which directly enclosing
	// assignment (for the self-append idiom) and which selectors are
	// call operands (method calls, as opposed to method values).
	assignOf := make(map[*ast.CallExpr]*ast.AssignStmt)
	called := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					assignOf[call] = x
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				called[sel] = true
			}
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if node == nil {
			return true
		}
		// Skip subtrees rooted on cold lines entirely: an annotated
		// statement's operands are part of the audited claim.
		if pass.Covered(node.Pos()) {
			return false
		}
		switch x := node.(type) {
		case *ast.CallExpr:
			checkCall(x, info, assignOf, diag)
			checkArgBoxing(x, info, diag)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN {
				if tv, ok := info.Types[x.Lhs[0]]; ok && isString(tv.Type) {
					diag(x.Pos(), "string concatenation allocates")
				}
			}
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Rhs {
					if lt, ok := info.Types[x.Lhs[i]]; ok {
						flagIfBoxed(x.Rhs[i], lt.Type, info, diag)
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					diag(x.Pos(), "map literal allocates")
				case *types.Slice:
					diag(x.Pos(), "slice literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					diag(cl.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && isString(tv.Type) {
					diag(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			diag(x.Pos(), "function literal allocates a closure")
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal && !called[x] {
				diag(x.Pos(), "method value allocates a receiver-bound closure")
			}
		case *ast.GoStmt:
			diag(x.Pos(), "goroutine launch allocates")
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt calls, and string/byte-slice
// conversions.
func checkCall(call *ast.CallExpr, info *types.Info, assignOf map[*ast.CallExpr]*ast.AssignStmt, diag func(token.Pos, string, ...any)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				diag(call.Pos(), "make allocates")
			case "new":
				diag(call.Pos(), "new allocates")
			case "append":
				if !selfAppend(call, assignOf) {
					diag(call.Pos(), "append extends a slice other than its assignment target and may allocate")
				}
			}
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			diag(call.Pos(), "fmt.%s allocates", fn.Name())
			return
		}
	}
	// string([]byte) and []byte(string) conversions copy and allocate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if at, ok := info.Types[call.Args[0]]; ok {
			to, from := tv.Type, at.Type
			if (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from)) {
				diag(call.Pos(), "string/byte-slice conversion copies and allocates")
			}
		}
	}
}

// selfAppend reports whether the call is the sanctioned idiom
// x = append(x, ...): its result is directly assigned to the same
// expression it extends (compared structurally).
func selfAppend(call *ast.CallExpr, assignOf map[*ast.CallExpr]*ast.AssignStmt) bool {
	if len(call.Args) == 0 {
		return false
	}
	asg := assignOf[call]
	if asg == nil || asg.Tok != token.ASSIGN {
		return false
	}
	for i, rhs := range asg.Rhs {
		if ast.Unparen(rhs) == call && i < len(asg.Lhs) {
			return typeutil.SameExpr(asg.Lhs[i], call.Args[0])
		}
	}
	return false
}

// checkArgBoxing flags call arguments implicitly converted to interface
// parameters.
func checkArgBoxing(call *ast.CallExpr, info *types.Info, diag func(token.Pos, string, ...any)) {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return // builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && call.Ellipsis.IsValid() && i == len(call.Args)-1:
			pt = params.At(params.Len() - 1).Type() // slice passed through whole
		case sig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		flagIfBoxed(arg, pt, info, diag)
	}
}

// flagIfBoxed reports an implicit interface conversion that boxes a
// non-pointer concrete value. Pointer-shaped values are stored in the
// interface word directly and carry no per-conversion allocation.
func flagIfBoxed(expr ast.Expr, target types.Type, info *types.Info, diag func(token.Pos, string, ...any)) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := info.Types[ast.Unparen(expr)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	if tv.Value != nil {
		return // constants box to compiler-laid-out static data
	}
	src := tv.Type
	if types.IsInterface(src) {
		return
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return // pointer-shaped: no box
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	diag(expr.Pos(), "interface conversion boxes a non-pointer %s value", src.String())
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
