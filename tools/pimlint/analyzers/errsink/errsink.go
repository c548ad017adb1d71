// Package errsink enforces error discipline on the durability paths:
// in the packages under lintcfg.DurabilityPackages (the journal, the
// persistent result store, the serving layer, the campaign harness and
// the atomic telemetry writers), an error produced by a durability
// call must not be discarded: not dropped by calling the function as a
// bare statement or defer, and not assigned to the blank identifier.
//
// A durability call is one of three things:
//
//   - a primitive: fsync, Write/WriteString/WriteAt, Chmod, Truncate,
//     bufio Flush, json Encode, os.Rename, os.WriteFile;
//   - Close of a file that was written (closing a read-only file is
//     not a durability point, flushing written data is);
//   - a call to a carrier. A carrier is a function of the durability
//     packages that returns an error and itself makes a durability call
//     no //pimlint:besteffort covers — a journal append, an atomic
//     write helper. Carriers are found on the program's call graph by
//     a fixpoint, so the obligation crosses helpers and packages.
//
// A carrier's error is treated as a durability error whatever it was
// built from. Ordinary error-free calls and non-durability errors
// (fmt.Println's, a helper whose only durability call is a justified
// best-effort discard) are ignored.
//
// The escape hatch is //pimlint:besteffort on the discarding line or
// the line above, with a mandatory justification naming why the write
// is best-effort (e.g. a failure reply to a client that already
// disconnected).
package errsink

import (
	"go/ast"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags discarded durability errors.
var Analyzer = &analysis.Analyzer{Name: "errsink", Marker: "besteffort", Audited: true, Run: run}

// primitives are the error-producing durability operations, by
// types.Func FullName. (*os.File).Close joins them when the receiver
// was written.
var primitives = map[string]bool{
	"(*os.File).Sync":                 true,
	"(*os.File).Write":                true,
	"(*os.File).WriteString":          true,
	"(*os.File).WriteAt":              true,
	"(*os.File).Chmod":                true,
	"(*os.File).Truncate":             true,
	"(*bufio.Writer).Flush":           true,
	"(*encoding/json.Encoder).Encode": true,
	"os.Rename":                       true,
	"os.WriteFile":                    true,
}

// writePrimitives are the operations whose receiver object (or field
// key) lands in the written set that arms (*os.File).Close.
var writePrimitives = map[string]bool{
	"(*os.File).Write":       true,
	"(*os.File).WriteString": true,
	"(*os.File).WriteAt":     true,
	"(*os.File).Truncate":    true,
	"(*os.File).Sync":        true,
}

type errsink struct {
	*analysis.Pass

	// written is the set that arms (*os.File).Close: the receivers of
	// write primitives, a local by its types.Object and a field by its
	// stable key.
	written map[any]bool
	// carriers are the functions whose error is a durability error, by
	// types.Func FullName.
	carriers map[string]bool
}

func run(pass *analysis.Pass) {
	e := &errsink{Pass: pass, written: make(map[any]bool), carriers: make(map[string]bool)}
	fns := pass.FuncsIn(lintcfg.DurabilityPackages)
	calls := make(map[*callgraph.Func][]*ast.CallExpr)
	for _, fn := range fns {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := callgraph.Callee(fn.Info, call); callee != nil {
					calls[fn] = append(calls[fn], call)
					if r := receiver(fn.Info, call); r != nil && writePrimitives[callee.FullName()] {
						e.written[r] = true
					}
				}
			}
			return true
		})
	}
	callgraph.Fixpoint(len(fns)+1, func() int {
		for _, fn := range fns {
			if e.carriers[fn.Name] || !returnsError(fn.Obj) {
				continue
			}
			for _, call := range calls[fn] {
				if e.durability(call, fn.Info) != "" && !pass.Covered(call.Pos()) {
					e.carriers[fn.Name] = true
					break
				}
			}
		}
		return len(e.carriers)
	})
	for _, fn := range fns {
		e.scanDiscards(fn)
	}
}

// receiver identifies the value a method call is made on — a local by
// its object, a field selection by its stable key — nil when it is
// neither.
func receiver(info *types.Info, call *ast.CallExpr) any {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
		case *ast.SelectorExpr:
			if key, ok := typeutil.SelectedField(info, x); ok {
				return key
			}
		}
	}
	return nil
}

// returnsError reports whether fn has an error among its results.
func returnsError(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if typeutil.IsError(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// durability names the durability call a call is — a primitive, Close
// of a written file, or a carrier — "" when it is none.
func (e *errsink) durability(call *ast.CallExpr, info *types.Info) string {
	callee := callgraph.Callee(info, call)
	if callee == nil {
		return ""
	}
	switch name := callee.FullName(); {
	case primitives[name] || e.carriers[name]:
		return name
	case name == "(*os.File).Close" && e.written[receiver(info, call)]:
		return "(*os.File).Close of a written file"
	}
	return ""
}

// scanDiscards finds the three discard shapes in one function: a
// durability call as a bare statement, as a deferred statement, and an
// error result assigned to _.
func (e *errsink) scanDiscards(fn *callgraph.Func) {
	// discarded reports call, when it is a durability call (each returns
	// an error), as dropping it the given way.
	discarded := func(call *ast.CallExpr, how string) {
		if what := e.durability(call, fn.Info); what != "" {
			e.Reportf(call.Pos(), "error from %s %s on a durability path; handle it or annotate //pimlint:besteffort <justification>", what, how)
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				discarded(call, "is unchecked")
			}
		case *ast.DeferStmt:
			discarded(n.Call, "is discarded by defer")
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callgraph.Callee(fn.Info, call)
			if callee == nil {
				return true
			}
			res := callee.Type().(*types.Signature).Results()
			for i := 0; i < res.Len() && i < len(n.Lhs); i++ {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" && typeutil.IsError(res.At(i).Type()) {
					discarded(call, "is assigned to _")
				}
			}
		}
		return true
	})
}
