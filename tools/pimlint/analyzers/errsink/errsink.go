// Package errsink enforces error discipline on the durability paths:
// in the packages under lintcfg.DurabilityPackages (the journal, the
// persistent result store, the serving layer and the campaign
// harness), an error produced by a durability primitive — fsync,
// Write/WriteString/WriteAt, bufio Flush, json Encode, os.Rename,
// os.WriteFile, or Close of a file that was written — must not be
// discarded: not dropped by calling the function as a bare statement
// or defer, and not assigned to the blank identifier.
//
// The check is flow-aware (tools/pimlint/dataflow): a repo function
// whose return value derives from a durability primitive's error (a
// journal append that propagates its Encode/Sync errors, an atomic
// write helper) is itself treated as a durability source, so
// discarding *its* error at a call site is the same finding. Ordinary
// error-free calls and non-durability errors (fmt.Println's) are
// ignored.
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
	"repro/tools/pimlint/dataflow"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer flags discarded durability errors.
var Analyzer = &analysis.Analyzer{Name: "errsink", Marker: "besteffort", Audited: true, Run: run}

const sourceDesc = "durability error"

// primitives are the error-producing durability operations, by
// types.Func FullName. (*os.File).Close joins them dynamically when
// the receiver was written — closing a read-only file is not a
// durability point, flushing written data is.
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
	interp *dataflow.Interp

	// written is the set that arms (*os.File).Close: the receivers of
	// write primitives, a local by its types.Object and a field by its
	// stable key.
	written map[any]bool
}

func run(pass *analysis.Pass) {
	e := &errsink{Pass: pass, written: make(map[any]bool)}
	fns := pass.FuncsIn(lintcfg.DurabilityPackages)
	for _, fn := range fns {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := callgraph.Callee(fn.Info, call); callee != nil && writePrimitives[callee.FullName()] {
					if r := receiver(fn.Info, call); r != nil {
						e.written[r] = true
					}
				}
			}
			return true
		})
	}
	// Marking durability-primitive results as tainted is what propagates
	// "this function's error matters" through helper returns.
	e.interp = dataflow.Solve(fns, dataflow.Config{
		Source: func(fn *types.Func, call *ast.CallExpr, info *types.Info) (string, bool) {
			if _, ok := e.durabilityError(fn, call, info); ok {
				return sourceDesc, false
			}
			return "", false
		},
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

// durabilityError reports whether the call is an intrinsic durability
// point — a primitive, or Close of a written file — naming it.
func (e *errsink) durabilityError(fn *types.Func, call *ast.CallExpr, info *types.Info) (string, bool) {
	name := fn.FullName()
	if primitives[name] {
		return name, true
	}
	if name == "(*os.File).Close" && e.written[receiver(info, call)] {
		return "(*os.File).Close of a written file", true
	}
	return "", false
}

// scanDiscards finds the three discard shapes in one function: a
// durability call as a bare statement, as a deferred statement, and an
// error result assigned to _.
func (e *errsink) scanDiscards(fn *callgraph.Func) {
	// discarded reports call, when it produces a durability error, as
	// dropping it the given way.
	discarded := func(call *ast.CallExpr, how string) {
		if what, _ := e.durabilityCallee(call, fn.Info); what != "" {
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
			_, sig := e.durabilityCallee(call, fn.Info)
			for i := 0; sig != nil && i < sig.Results().Len() && i < len(n.Lhs); i++ {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" && typeutil.IsError(sig.Results().At(i).Type()) {
					discarded(call, "is assigned to _")
				}
			}
		}
		return true
	})
}

// durabilityCallee names the durability error the call produces: from
// a primitive, an armed Close, or a repo function whose summary return
// carries the durability taint. The callee must actually return an
// error for a discard to exist.
func (e *errsink) durabilityCallee(call *ast.CallExpr, info *types.Info) (string, *types.Signature) {
	callee := callgraph.Callee(info, call)
	if callee == nil {
		return "", nil
	}
	sig := callee.Type().(*types.Signature)
	hasError := false
	for i := 0; i < sig.Results().Len(); i++ {
		hasError = hasError || typeutil.IsError(sig.Results().At(i).Type())
	}
	if !hasError {
		return "", nil
	}
	if what, ok := e.durabilityError(callee, call, info); ok {
		return what, sig
	}
	if s := e.interp.Summary(callee.FullName()); s != nil && len(s.Ret.Sources()) > 0 {
		return callee.FullName(), sig
	}
	return "", nil
}
