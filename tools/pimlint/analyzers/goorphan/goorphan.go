// Package goorphan requires every goroutine launched in the
// concurrency packages to be visibly tracked.
//
// The serve-smoke gate checks at runtime that shutdown leaks no
// goroutines; goorphan makes the discipline behind that check a
// compile-time property: a `go` statement in service code must launch
// work that signals a sync.WaitGroup — a call to (*sync.WaitGroup).Done
// somewhere in the goroutine's body or in a function it (transitively)
// calls — so some owner can Wait for it. A goroutine that is
// intentionally detached (a process-lifetime acceptor loop, for
// example) carries //pimlint:detached with a mandatory justification.
//
// The check is syntactic+reachability, not a proof: it verifies the
// Done signal exists on some path, and pairing the Add/Wait correctly
// remains a review concern. What it rules out is the silent orphan —
// a goroutine no WaitGroup ever hears about, which is exactly the kind
// the chaos and smoke gates can only catch when the scheduler
// cooperates.
package goorphan

import (
	"go/ast"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer requires goroutines in service code to be WaitGroup-tracked
// or carry a justified //pimlint:detached.
var Analyzer = &analysis.Analyzer{Name: "goorphan", Marker: "detached", Audited: true, Run: run}

// doneName is the WaitGroup signal the analyzer looks for.
const doneName = "(*sync.WaitGroup).Done"

func run(pass *analysis.Pass) {
	// tracked reports whether name, or any function reachable from it,
	// calls (*sync.WaitGroup).Done.
	memo := map[string]bool{doneName: true}
	tracked := func(name string) bool {
		done, ok := memo[name]
		if fn := pass.Funcs[name]; !ok && fn != nil {
			for _, n := range pass.Reachable([]*callgraph.Func{fn}, nil) {
				for _, c := range n.Calls {
					done = done || c.Callee == doneName
				}
			}
			memo[name] = done
		}
		return done
	}

	for _, pkg := range pass.Pkgs {
		if !pass.Cfg.Covers(lintcfg.ConcurrencyPackages, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				// A launched literal is tracked when any call in its
				// body is; a named launch when its callee is.
				found := false
				visit := func(call *ast.CallExpr) {
					if fn := callgraph.Callee(pkg.TypesInfo, call); fn != nil && tracked(fn.FullName()) {
						found = true
					}
				}
				if lit, isLit := gs.Call.Fun.(*ast.FuncLit); isLit {
					ast.Inspect(lit.Body, func(m ast.Node) bool {
						if call, isCall := m.(*ast.CallExpr); isCall {
							visit(call)
						}
						return !found
					})
				} else {
					visit(gs.Call)
				}
				if !found {
					pass.Reportf(gs.Pos(), "goroutine is not visibly tracked: no (*sync.WaitGroup).Done on any path from the "+
						"launched function; track it or annotate //pimlint:detached <why>")
				}
				return true
			})
		}
	}
}
