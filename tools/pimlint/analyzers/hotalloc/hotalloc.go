// Package hotalloc flags allocation-causing constructs in functions
// reachable from the simulator's per-cycle hot-path roots.
//
// The per-cycle path — System.advance -> Kernel.Tick ->
// generators -> NoC -> caches -> Controller.Tick -> DRAM/sched —
// executes hundreds of millions of times per campaign; a single heap
// allocation there dominates wall clock long before any profiler is
// pointed at it. This analyzer makes the zero-alloc contract static: it
// builds a conservative call graph over every analyzed package
// (tools/pimlint/callgraph), computes the set of functions reachable
// from the configured hotpath_roots, and inside reachable functions
// belonging to hotpath_packages flags:
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
//     locked in by AllocsPerRun regression tests.
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
	"sort"
	"strings"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
)

// Annotation marks a line as off the per-cycle path.
const Annotation = "pimlint:coldpath"

// New builds the analyzer against a configuration (nil uses defaults).
func New(cfg *lintcfg.Config) *analysis.Analyzer {
	if cfg == nil {
		cfg = lintcfg.Default()
	}
	h := &hotalloc{
		cfg:       cfg,
		coldLines: make(map[string]map[int]bool),
	}
	h.builder = callgraph.NewBuilder(h.coldLine)
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "flag allocation-causing constructs reachable from hot-path roots\n\n" +
			"Functions reachable from the configured hotpath_roots form the " +
			"simulator's per-cycle hot path; allocations there dominate " +
			"campaign wall clock. Preallocate scratch buffers, hoist " +
			"closures, avoid boxing, or annotate provably cold lines " +
			"with //pimlint:coldpath.",
		WholeProgram: true,
		Run: func(pass *analysis.Pass) (any, error) {
			h.addPackage(pass)
			return nil, nil
		},
		End: func(report func(analysis.Diagnostic)) error {
			return h.finish(report)
		},
	}
}

// hotalloc accumulates per-package facts across Run calls.
type hotalloc struct {
	cfg     *lintcfg.Config
	builder *callgraph.Builder
	fset    *token.FileSet

	// coldLines maps filename -> line -> annotated; collected before
	// call edges are added so the builder's skip callback can consult
	// it.
	coldLines map[string]map[int]bool
}

// coldLine reports whether the position's line or the line above it
// carries a //pimlint:coldpath annotation.
func (h *hotalloc) coldLine(posn token.Position) bool {
	lines := h.coldLines[posn.Filename]
	return lines != nil && (lines[posn.Line] || lines[posn.Line-1])
}

func (h *hotalloc) addPackage(pass *analysis.Pass) {
	h.fset = pass.Fset
	for _, file := range pass.Files {
		fname := pass.Fset.Position(file.Pos()).Filename
		lines := h.coldLines[fname]
		if lines == nil {
			lines = make(map[int]bool)
			h.coldLines[fname] = lines
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, Annotation) {
					lines[pass.Fset.Position(c.End()).Line] = true
				}
			}
		}
	}
	h.builder.AddPackage(pass.Fset, pass.Pkg, pass.Files, pass.TypesInfo)
}

func (h *hotalloc) finish(report func(analysis.Diagnostic)) error {
	graph := h.builder.Finish()
	var roots []*callgraph.Node
	for _, id := range h.cfg.HotPathRoots {
		roots = append(roots, graph.Lookup(id)...)
	}
	if len(roots) == 0 {
		// No root resolved in the analyzed set: nothing is hot. This is
		// the normal case for partial invocations (linting a single
		// cold package) and for trees without a configured hot path.
		return nil
	}

	// A function whose declaration line is annotated is cold in its
	// entirety and does not extend reachability.
	reached := graph.Reachable(roots, func(n *callgraph.Node) bool {
		return n.Decl != nil && h.coldLine(h.fset.Position(n.Decl.Pos()))
	})

	// Deterministic report order: hot functions sorted by position.
	var nodes []*callgraph.Node
	for _, n := range reached {
		if n.Decl == nil || n.Pkg == nil || !h.cfg.HotPackage(n.Pkg.Path()) {
			continue
		}
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })
	for _, n := range nodes {
		h.checkFunc(n, report)
	}
	return nil
}

// checkFunc walks one hot function's body flagging allocation sites.
func (h *hotalloc) checkFunc(n *callgraph.Node, report func(analysis.Diagnostic)) {
	info := n.Info
	diag := func(pos token.Pos, format string, args ...any) {
		if h.coldLine(h.fset.Position(pos)) {
			return
		}
		report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(
			"%s in hot-path function %s; preallocate, hoist, or annotate //%s",
			fmt.Sprintf(format, args...), n.Func.Name(), Annotation)})
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
		if h.coldLine(h.fset.Position(node.Pos())) {
			return false
		}
		switch x := node.(type) {
		case *ast.CallExpr:
			h.checkCall(x, info, assignOf, diag)
			h.checkArgBoxing(x, info, diag)
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN {
				if tv, ok := info.Types[x.Lhs[0]]; ok && isString(tv.Type) {
					diag(x.Pos(), "string concatenation allocates")
				}
			}
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Rhs {
					if lt, ok := info.Types[x.Lhs[i]]; ok {
						h.flagIfBoxed(x.Rhs[i], lt.Type, info, diag)
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
func (h *hotalloc) checkCall(call *ast.CallExpr, info *types.Info, assignOf map[*ast.CallExpr]*ast.AssignStmt, diag func(token.Pos, string, ...any)) {
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
			return exprEqual(asg.Lhs[i], call.Args[0])
		}
	}
	return false
}

// checkArgBoxing flags call arguments implicitly converted to interface
// parameters.
func (h *hotalloc) checkArgBoxing(call *ast.CallExpr, info *types.Info, diag func(token.Pos, string, ...any)) {
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
		h.flagIfBoxed(arg, pt, info, diag)
	}
}

// flagIfBoxed reports an implicit interface conversion that boxes a
// non-pointer concrete value. Pointer-shaped values are stored in the
// interface word directly and carry no per-conversion allocation.
func (h *hotalloc) flagIfBoxed(expr ast.Expr, target types.Type, info *types.Info, diag func(token.Pos, string, ...any)) {
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

// exprEqual compares identifier/selector/index shapes structurally.
func exprEqual(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && exprEqual(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Index, y.Index)
	}
	return false
}
