// Package ctxflow requires every blocking channel operation reachable
// from a service root to be cancellable.
//
// The pimserve daemon's shutdown contract is that no handler or worker
// can hang: every wait must race a cancellation signal. The chaos gate
// can only probe that probabilistically; ctxflow makes it a static
// property. From lintcfg.WorkerRoots (HTTP handlers and worker-loop
// bodies, in types.Func FullName form) it computes the reachable
// functions on the program's call graph, and inside the ones belonging
// to lintcfg.ConcurrencyPackages it checks each channel operation:
//
//   - a send or receive that is an arm of a select is fine when the
//     select also has a default arm (non-blocking poll) or a
//     cancellation arm — a receive from a Done() call (context.Context
//     and friends) or from a struct{} channel (the close-to-signal
//     idiom: job done, server drain, entry fulfilled);
//   - ranging over a channel is accepted: the range ends when the
//     producer closes the channel, which is the drain discipline the
//     worker pools use;
//   - any other send or receive blocks unconditionally and is flagged,
//     as is a select none of whose arms can cancel it.
//
// Goroutine bodies launched by reachable functions are checked as part
// of them: a worker's spawned helper is service code too.
//
// The escape hatch is //pimlint:ctxflow on the flagged line or the
// line above, with a mandatory justification (e.g. a send that is
// provably non-blocking because the channel is buffered and used
// once).
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer requires blocking channel operations reachable from the
// service roots to be cancellable.
var Analyzer = &analysis.Analyzer{Name: "ctxflow", Marker: "ctxflow", Audited: true, Run: run}

func run(pass *analysis.Pass) {
	// No root resolving means nothing is rooted in the analyzed set
	// (a partial invocation, or a tree without a service layer).
	for _, fn := range pass.Reachable(pass.Roots(lintcfg.WorkerRoots), nil) {
		if pass.Cfg.Covers(lintcfg.ConcurrencyPackages, fn.Pkg.Path()) {
			checkFunc(pass, fn)
		}
	}
}

// checkFunc walks one reachable function's body (literals included)
// and flags non-cancellable blocking channel operations.
func checkFunc(pass *analysis.Pass, n *callgraph.Func) {
	info, diag := n.Info, pass.Reportf

	// Pass 1: classify selects and remember their comm operations so
	// the general walk does not re-flag them.
	okComms := make(map[ast.Node]bool) // SendStmt / recv UnaryExpr inside any select
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectStmt)
		if !ok {
			return true
		}
		cancellable := false
		for _, cl := range sel.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				cancellable = true // default arm: non-blocking poll
				continue
			}
			if recv := commRecv(cc.Comm); recv != nil {
				okComms[recv] = true
				if isCancelSignal(info, recv.X) {
					cancellable = true
				}
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				okComms[send] = true
			}
		}
		if !cancellable {
			diag(sel.Pos(), "select reachable from a worker root has no cancellation arm "+
				"(ctx.Done()/close-signal receive) and no default; shutdown can hang here")
		}
		return true
	})

	// Pass 2: bare sends and receives outside selects.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.SendStmt:
			if !okComms[x] {
				diag(x.Pos(), "blocking channel send reachable from a worker root is not cancellable; "+
					"wrap it in a select with a ctx.Done()/close-signal arm")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !okComms[x] {
				diag(x.Pos(), "blocking channel receive reachable from a worker root is not cancellable; "+
					"wrap it in a select with a ctx.Done()/close-signal arm")
			}
		}
		return true
	})
}

// commRecv extracts the receive operation of a select comm statement:
// `<-ch`, `v := <-ch`, or `v, ok := <-ch`.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	var expr ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		expr = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			expr = s.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(expr).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// isCancelSignal reports whether receiving from expr counts as a
// cancellation arm: a Done() method call (context.Context and
// anything shaped like it) or a struct{}-element channel, the
// close-to-signal idiom.
func isCancelSignal(info *types.Info, expr ast.Expr) bool {
	e := ast.Unparen(expr)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}
