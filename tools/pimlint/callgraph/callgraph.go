// Package callgraph is the function index of a pimlint run: every
// function the target packages declare outside their test files, and a
// conservative static call graph over them, resolved from go/types
// information without any x/tools dependency.
//
// One graph serves every analyzer. Three kinds of edges are resolved:
//
//   - direct calls to package-level functions;
//   - method calls on concrete receivers (the usual case in the
//     simulator's tick path);
//   - interface method calls, expanded to every concrete method in the
//     analyzed packages whose receiver type implements the interface
//     (declared-interface method sets). This is the conservative
//     over-approximation that keeps reachability sound for the
//     scheduler-policy pattern (sched.Policy, sched.View).
//
// Functions and edges are keyed by types.Func FullName strings rather
// than object identity: the driver typechecks each target package from
// source while its dependencies load from compiler export data, so the
// same function is represented by distinct *types.Func objects in
// different packages' type information. Names are stable across that
// boundary; object pointers are not.
//
// Calls through plain function values (not method values, not
// interfaces) are not resolved; the hotalloc analyzer compensates by
// flagging closure creation in hot code, so an unresolved function
// value cannot smuggle an allocation into the hot path unnoticed.
//
// Every edge keeps its call site's position, so an analyzer whose
// annotation prunes reachability (//pimlint:coldpath for hotalloc)
// states that as a predicate when it asks, and the analyzers that
// prune nothing ask the same graph.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Func is one declared function or method with a body.
type Func struct {
	Name string // types.Func FullName
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	Pkg  *types.Package
	Info *types.Info // types info of the declaring package

	// Calls are the function's call sites in source order, function
	// literals included: reaching the function reaches its closures.
	// Callees outside the analyzed set (the standard library) appear by
	// name only — the concurrency analyzers match those, e.g.
	// "(*os.File).Sync".
	Calls []Call
}

// Call is one resolved call edge.
type Call struct {
	Pos    token.Pos
	Callee string // types.Func FullName
}

// Graph is the function table and its call edges.
type Graph struct {
	Funcs map[string]*Func // by FullName
}

// Builder accumulates packages and produces a Graph.
type Builder struct {
	funcs map[string]*Func
	// ifaceCalls are call sites on interface methods, resolved in
	// Finish once every named type has been seen.
	ifaceCalls []ifaceCall
	// named collects every defined type in the analyzed packages, the
	// candidate receiver set for interface resolution.
	named []*types.Named
}

type ifaceCall struct {
	caller *Func
	pos    token.Pos
	iface  *types.Interface
	method *types.Func
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{funcs: make(map[string]*Func)}
}

// AddPackage feeds one typechecked package into the graph: the
// functions its files declare become table entries, typeNames become
// interface-resolution candidates, and every call site becomes an edge
// (interface calls are deferred to Finish). A redeclared name keeps its
// first body.
func (b *Builder) AddPackage(pkg *types.Package, info *types.Info, files []*ast.File, typeNames []*types.TypeName) {
	for _, tn := range typeNames {
		if n, ok := tn.Type().(*types.Named); ok {
			b.named = append(b.named, n)
		}
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok || b.funcs[obj.FullName()] != nil {
				continue
			}
			fn := &Func{Name: obj.FullName(), Obj: obj, Decl: fd, File: file, Pkg: pkg, Info: info}
			b.funcs[fn.Name] = fn
			b.addEdges(fn)
		}
	}
}

func (b *Builder) addEdges(caller *Func) {
	ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := Callee(caller.Info, call)
		if fn == nil {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := caller.Info.Selections[sel]; s != nil && types.IsInterface(s.Recv()) {
				b.ifaceCalls = append(b.ifaceCalls, ifaceCall{
					caller: caller,
					pos:    call.Pos(),
					iface:  s.Recv().Underlying().(*types.Interface),
					method: fn,
				})
				return true
			}
		}
		caller.Calls = append(caller.Calls, Call{call.Pos(), fn.FullName()})
		return true
	})
}

// Finish resolves the deferred interface calls against the collected
// type set and returns the graph.
func (b *Builder) Finish() *Graph {
	for _, ic := range b.ifaceCalls {
		for _, named := range b.named {
			if types.IsInterface(named.Underlying()) {
				continue
			}
			ptr := types.NewPointer(named)
			if !implements(ptr, ic.iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, ic.method.Pkg(), ic.method.Name())
			if m, ok := obj.(*types.Func); ok {
				ic.caller.Calls = append(ic.caller.Calls, Call{ic.pos, m.FullName()})
			}
		}
	}
	return &Graph{Funcs: b.funcs}
}

// implements reports whether t's method set holds every method of iface
// with the same signature, types compared by their package-qualified
// names. types.Implements cannot answer this across packages: an
// interface from a dependency's export data and a type checked from
// source name the same types through distinct objects.
func implements(t types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		found := false
		for j := 0; j < ms.Len() && !found; j++ {
			f := ms.At(j).Obj()
			found = f.Name() == m.Name() && (m.Exported() || f.Pkg().Path() == m.Pkg().Path()) &&
				sigKey(f.Type().(*types.Signature)) == sigKey(m.Type().(*types.Signature))
		}
		if !found {
			return false
		}
	}
	return true
}

// sigKey renders a signature's parameter and result types, without
// names or receiver.
func sigKey(sig *types.Signature) string {
	key := ""
	if sig.Variadic() {
		key = "..."
	}
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		key += "("
		for i := 0; i < tup.Len(); i++ {
			key += types.TypeString(tup.At(i).Type(), nil) + ","
		}
		key += ")"
	}
	return key
}

// Callee resolves a call to its static *types.Func — a package
// function, a method (concrete or interface), or a qualified name. It
// is nil for function values, builtins and conversions. This is the
// one callee resolver of the suite.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Reachable computes the functions reachable from roots, keyed by
// FullName. skip, when non-nil, is asked about every edge — the call
// site and the declared callee — and a true return drops the edge, so
// the callee is neither visited nor expanded through it.
func (g *Graph) Reachable(roots []*Func, skip func(site token.Pos, callee *Func) bool) map[string]*Func {
	reached := make(map[string]*Func)
	stack := append([]*Func(nil), roots...)
	for _, r := range roots {
		reached[r.Name] = r
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range fn.Calls {
			callee := g.Funcs[c.Callee]
			if callee == nil || reached[c.Callee] != nil || skip != nil && skip(c.Pos, callee) {
				continue
			}
			reached[c.Callee] = callee
			stack = append(stack, callee)
		}
	}
	return reached
}

// Fixpoint reruns round — one pass that recomputes every per-function
// summary from the previous pass's — until the summary size it returns
// stops changing, at most max times. The last round's results stand.
func Fixpoint(max int, round func() (size int)) {
	prev := -1
	for i := 0; i < max; i++ {
		size := round()
		if size == prev {
			return
		}
		prev = size
	}
}
