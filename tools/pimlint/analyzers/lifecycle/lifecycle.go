// Package lifecycle audits resource lifecycles in service and
// campaign code (lintcfg.LifecyclePackages): every os.File, time.Timer,
// time.Ticker, http.Response.Body, net Conn/Listener and
// context.CancelFunc created there must be released — closed, stopped
// or cancelled — on all paths, or carry an audited annotation.
//
// For each creation site (an assignment from a known constructor) the
// analyzer classifies every use of the resulting variable:
//
//   - releases: the release method called directly or under defer
//     (including inside a deferred function literal), a cancel func
//     invoked, or the variable passed to a function whose own body
//     releases that parameter (releaser summaries, computed
//     transitively across packages);
//   - escapes: returned, stored into a field, global, composite, map
//     or channel, aliased to another variable, address taken, or
//     passed to a non-releasing function — ownership moved, the
//     analyzer stops tracking;
//   - neutral uses: reads, method calls (Write, Name, Reset), nil
//     comparisons — these neither release nor excuse.
//
// Functions that return a resource they created become constructors
// for their callers (producer summaries), so a leak across a
// constructor/consumer package split is still one finding at the
// consumer's creation site.
//
// Findings: a resource never released on any path; a resource result
// discarded at creation (`ctx, _ := context.WithCancel(ctx)` — the
// context leaks until process exit); and a return between creation
// and the first release with nothing released on that path (early
// return), unless the return is the constructor's own error path
// (guarded by the creation's error variable).
//
// The escape hatch is //pimlint:lifecycle on the creation or the
// leaking return (with a mandatory justification, e.g. a
// process-lifetime listener).
package lifecycle

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

// Analyzer flags resources not released on all paths.
var Analyzer = &analysis.Analyzer{Name: "lifecycle", Marker: "lifecycle", Audited: true, Run: run}

// kind is how a resource is let go; noun names the thing in
// diagnostics.
type kind struct{ release, noun string }

var (
	kindClose     = &kind{"Close", "handle"}
	kindStop      = &kind{"Stop", "timer"}
	kindCall      = &kind{"call the cancel func", "cancel func"} // context.CancelFunc: invoke the value
	kindBodyClose = &kind{"Body.Close", "response body"}
)

type ctorInfo struct {
	idx  int // which result is the resource
	kind *kind
}

// intrinsicCtors are the standard-library constructors, by types.Func
// FullName.
var intrinsicCtors = map[string]ctorInfo{
	"os.Open":       {0, kindClose},
	"os.Create":     {0, kindClose},
	"os.OpenFile":   {0, kindClose},
	"os.CreateTemp": {0, kindClose},

	"time.NewTimer":  {0, kindStop},
	"time.NewTicker": {0, kindStop},

	"context.WithCancel":   {1, kindCall},
	"context.WithTimeout":  {1, kindCall},
	"context.WithDeadline": {1, kindCall},

	"net.Listen":      {0, kindClose},
	"net.Dial":        {0, kindClose},
	"net.DialTimeout": {0, kindClose},

	"net/http.Get":            {0, kindBodyClose},
	"(*net/http.Client).Do":   {0, kindBodyClose},
	"(*net/http.Client).Get":  {0, kindBodyClose},
	"(*net/http.Client).Post": {0, kindBodyClose},
}

// resourceTypes classifies static types as releasable resources, for
// parameter tracking (releaser summaries).
var resourceTypes = map[string]*kind{
	"os.File":            kindClose,
	"time.Timer":         kindStop,
	"time.Ticker":        kindStop,
	"context.CancelFunc": kindCall,
	"net/http.Response":  kindBodyClose,
	"net.Conn":           kindClose,
	"net.Listener":       kindClose,
}

func resourceKind(t types.Type) *kind {
	named, ok := types.Unalias(typeutil.Deref(t)).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return resourceTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

type lifecycle struct {
	*analysis.Pass
	producers map[string]ctorInfo
	releasers map[string]map[int]*kind // fullName -> param idx -> kind released
}

type finding struct {
	pos  token.Pos // where to report
	also token.Pos // second position the annotation may cover
	msg  string
}

func run(pass *analysis.Pass) {
	l := &lifecycle{pass, make(map[string]ctorInfo), make(map[string]map[int]*kind)}
	fns := pass.FuncsIn(lintcfg.LifecyclePackages)
	// Producer and releaser summaries feed each other only through
	// additional call sites, so a few rounds reach the fixpoint; the
	// final round's findings are authoritative.
	var finds []finding
	callgraph.Fixpoint(6, func() int {
		finds = nil
		for _, fn := range fns {
			finds = append(finds, l.scanFunc(fn)...)
		}
		size := len(l.producers)
		for _, m := range l.releasers {
			size += len(m)
		}
		return size
	})
	for _, f := range finds {
		if !f.also.IsValid() || !pass.Covered(f.also) {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}

// creation is one tracked resource: a constructor result bound to a
// local, or a resource-typed parameter (tracked for releaser
// summaries only).
type creation struct {
	obj     types.Object
	pos     token.Pos
	kind    *kind
	ctor    string   // display name of the constructor
	scope   ast.Node // innermost enclosing function node
	errObj  types.Object
	isParam bool
	prmIdx  int

	released   bool
	escaped    bool
	releasePos []token.Pos
	retIdx     int // result index the resource is returned at, -1
}

type retSite struct {
	ret   *ast.ReturnStmt
	scope ast.Node
	// guards are the if-conditions enclosing the return, for the
	// constructor-error-path exemption.
	guards []ast.Expr
}

func (l *lifecycle) scanFunc(fn *callgraph.Func) []finding {
	info := fn.Info
	creations := make(map[types.Object]*creation)
	var order []*creation
	var finds []finding

	track := func(c *creation) {
		creations[c.obj] = c
		order = append(order, c)
	}

	// Parameters of resource type are tracked so releases inside this
	// function summarize it as a releaser for its callers.
	for idx, o := range typeutil.Params(info, fn.Decl) {
		if o == nil {
			continue
		}
		if k := resourceKind(o.Type()); k != nil {
			track(&creation{
				obj: o, pos: o.Pos(), kind: k, ctor: "parameter",
				scope: fn.Decl, isParam: true, prmIdx: idx, retIdx: -1,
			})
		}
	}

	// Pass 1: creations and direct-return producers, with a function
	// scope stack so closures keep their own return statements.
	var stack []ast.Node
	scopeOf := func() ast.Node { return scopeOfStack(stack, fn.Decl) }
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			ci, ctorName, ok := l.ctorOf(call, info)
			if !ok {
				return true
			}
			if ci.idx >= len(n.Lhs) {
				return true
			}
			lhs, ok := n.Lhs[ci.idx].(*ast.Ident)
			if !ok {
				return true
			}
			if lhs.Name == "_" {
				finds = append(finds, discarded(call, ci, ctorName))
				return true
			}
			obj := info.ObjectOf(lhs)
			if obj == nil || creations[obj] != nil {
				return true
			}
			c := &creation{
				obj: obj, pos: call.Pos(), kind: ci.kind, ctor: ctorName,
				scope: scopeOf(), retIdx: -1,
			}
			// The error variable bound alongside, for the
			// constructor-error-path return exemption.
			for i, le := range n.Lhs {
				if i == ci.idx {
					continue
				}
				if id, ok := le.(*ast.Ident); ok && id.Name != "_" {
					if o := info.ObjectOf(id); o != nil && typeutil.IsError(o.Type()) {
						c.errObj = o
					}
				}
			}
			track(c)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if ci, ctorName, ok := l.ctorOf(call, info); ok {
					finds = append(finds, discarded(call, ci, ctorName))
				}
			}
		case *ast.ReturnStmt:
			// `return os.Open(path)` — the enclosing function is a
			// producer without ever binding the resource.
			if scopeOf() != fn.Decl || len(n.Results) != 1 {
				return true
			}
			if call, ok := n.Results[0].(*ast.CallExpr); ok {
				if ci, _, ok := l.ctorOf(call, info); ok {
					l.producers[fn.Name] = ci
				}
			}
		}
		return true
	})

	// Pass 2: classify every use of every tracked object, and collect
	// return sites with their guard conditions.
	var rets []retSite
	stack = stack[:0]
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if ret, ok := n.(*ast.ReturnStmt); ok {
			rs := retSite{ret: ret, scope: scopeOf()}
			for _, p := range stack {
				if ifs, ok := p.(*ast.IfStmt); ok {
					rs.guards = append(rs.guards, ifs.Cond)
				}
			}
			rets = append(rets, rs)
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		c := creations[obj]
		if c == nil {
			return true
		}
		l.classifyUse(fn, c, id, stack)
		return true
	})

	// Summaries.
	for _, c := range order {
		if c.isParam {
			if c.released {
				if l.releasers[fn.Name] == nil {
					l.releasers[fn.Name] = make(map[int]*kind)
				}
				l.releasers[fn.Name][c.prmIdx] = c.kind
			}
			continue
		}
		if c.retIdx >= 0 {
			l.producers[fn.Name] = ctorInfo{idx: c.retIdx, kind: c.kind}
		}
	}

	// Findings.
	for _, c := range order {
		if c.isParam || c.escaped {
			continue
		}
		if !c.released {
			finds = append(finds, finding{pos: c.pos, msg: fmt.Sprintf(
				"%s from %s is never released (%s) on any path; release it or annotate //pimlint:lifecycle <justification>",
				c.kind.noun, c.ctor, c.kind.release)})
			continue
		}
		for _, rs := range rets {
			if rs.scope != c.scope || rs.ret.Pos() <= c.pos {
				continue
			}
			if c.errObj != nil && guardMentions(rs.guards, c.errObj, info) {
				continue // the constructor's own error path
			}
			covered := false
			for _, rp := range c.releasePos {
				if rp > c.pos && rp < rs.ret.End() {
					covered = true
					break
				}
			}
			if !covered {
				finds = append(finds, finding{pos: rs.ret.Pos(), also: c.pos, msg: fmt.Sprintf(
					"return leaks the %s created by %s at line %d: nothing releases it on this path; release before returning or annotate //pimlint:lifecycle <justification>",
					c.kind.noun, c.ctor, l.Fset.Position(c.pos).Line)})
			}
		}
	}
	return finds
}

// ctorOf resolves a call to a resource constructor: intrinsic or a
// producer summary.
func (l *lifecycle) ctorOf(call *ast.CallExpr, info *types.Info) (ctorInfo, string, bool) {
	fn := callgraph.Callee(info, call)
	if fn == nil {
		return ctorInfo{}, "", false
	}
	name := fn.FullName()
	ci, ok := intrinsicCtors[name]
	if !ok {
		ci, ok = l.producers[name]
	}
	return ci, name, ok
}

// discarded is the finding for a constructor whose resource result is
// dropped at the call.
func discarded(call *ast.CallExpr, ci ctorInfo, ctor string) finding {
	return finding{pos: call.Pos(), msg: fmt.Sprintf(
		"%s result of %s is discarded at creation and can never be released; bind and release it or annotate //pimlint:lifecycle <justification>",
		ci.kind.noun, ctor)}
}

// classifyUse decides what one identifier occurrence does to the
// resource: release, escape, or neutral.
func (l *lifecycle) classifyUse(fn *callgraph.Func, c *creation, id *ast.Ident, stack []ast.Node) {
	info := fn.Info
	// stack ends with id itself; parent chain above it.
	parentAt := func(i int) ast.Node {
		if len(stack)-1-i >= 0 {
			return stack[len(stack)-1-i]
		}
		return nil
	}
	parent := parentAt(1)
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			return // id is the Sel side of someone else's selector
		}
		// id.<method>() — a release if it is the release method, a
		// neutral read/method call otherwise.
		if call, ok := parentAt(2).(*ast.CallExpr); ok && call.Fun == p {
			if (c.kind == kindClose || c.kind == kindStop) && p.Sel.Name == c.kind.release {
				c.released = true
				c.releasePos = append(c.releasePos, call.Pos())
			}
			return
		}
		if c.kind == kindBodyClose && p.Sel.Name == "Body" {
			// id.Body.Close()
			if sel2, ok := parentAt(2).(*ast.SelectorExpr); ok && sel2.Sel.Name == "Close" {
				if call, ok := parentAt(3).(*ast.CallExpr); ok && call.Fun == sel2 {
					c.released = true
					c.releasePos = append(c.releasePos, call.Pos())
					return
				}
			}
		}
		return
	case *ast.CallExpr:
		if p.Fun == id {
			if c.kind == kindCall {
				c.released = true
				c.releasePos = append(c.releasePos, p.Pos())
			}
			return
		}
		// id as an argument: released if the callee's summary says it
		// releases that parameter, otherwise ownership moves.
		for i, a := range p.Args {
			if a != id {
				continue
			}
			if callee := callgraph.Callee(info, p); callee != nil && l.releasers[callee.FullName()][i] == c.kind {
				c.released = true
				c.releasePos = append(c.releasePos, p.Pos())
				return
			}
			c.escaped = true
			return
		}
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != id {
				continue
			}
			// `_ = f` keeps ownership here; any other alias or store
			// moves it.
			if i < len(p.Lhs) {
				if lid, ok := p.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
					return
				}
			}
			c.escaped = true
			return
		}
	case *ast.ReturnStmt:
		for i, res := range p.Results {
			if res == id {
				c.escaped = true
				if !c.isParam && c.scope == fn.Decl && scopeOfStack(stack, fn.Decl) == fn.Decl {
					c.retIdx = i
				}
			}
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			c.escaped = true
		}
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		c.escaped = true
	case *ast.IndexExpr:
		// map[f] read is neutral; m[k] = f arrives as AssignStmt RHS.
	}
}

// scopeOfStack finds the innermost function node on the stack.
func scopeOfStack(stack []ast.Node, decl ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return stack[i]
		}
	}
	return decl
}

// guardMentions reports whether any enclosing if-condition references
// the creation's error variable (the `if err != nil { return ... }`
// constructor-failure path).
func guardMentions(guards []ast.Expr, errObj types.Object, info *types.Info) bool {
	for _, g := range guards {
		found := false
		ast.Inspect(g, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == errObj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
