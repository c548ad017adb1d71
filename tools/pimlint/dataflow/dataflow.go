// Package dataflow implements the taint engine under the pimlint flow
// analyzers (detflow, errsink): a self-contained def-use analysis over
// the functions of tools/pimlint/callgraph — no x/tools, string-keyed
// function identity, conservative where the language gets hard.
//
// # Model
//
// Values carry label sets (Labels). Two namespaces share one set:
//
//   - source labels ("s:wall clock") are global facts — the value was
//     derived from a configured nondeterminism or error source;
//   - parameter labels ("p:0", "p:r") are local to one function's
//     analysis and exist so the function can be summarized for its
//     callers: a parameter label surviving to a return or a sink
//     argument becomes part of the Summary.
//
// Each function is analyzed flow-insensitively: the assignment-shaped
// statements of its body (assignments, var specs, range clauses,
// composite-literal field writes) are iterated to a fixpoint, labels
// only ever growing. Field and package-variable writes whose
// right-hand side carries source labels feed a global store keyed by
// the stable "pkgpath.TypeName.field" / "pkgpath.var" identity
// (tools/pimlint/typeutil), so taint crosses package boundaries even
// between functions that never call each other. Interprocedural flow
// through calls uses memoized per-function summaries; Solve iterates
// global rounds (callgraph.Fixpoint, clearing the memo each time) until
// the field store and the summaries stop growing.
//
// # Precision choices
//
// Three deliberate asymmetries keep the engine useful on real code:
//
//   - A struct composite literal does not label the composed object
//     with its field values' labels; the writes go to the field keys
//     instead. Otherwise one tainted field (a run manifest) would
//     taint every struct it rides in, and every field read of that
//     struct after it.
//   - A field read picks up the field key's labels plus the labels of
//     the object it is read from — but field writes never taint the
//     parent object, so clean fields of a struct with one tainted
//     field stay clean.
//   - At sink arguments only, the argument's static type is also
//     walked for globally tainted field keys (containment): passing a
//     whole struct whose Manifest field carries wall clock into a
//     journal write is a finding even though the struct object itself
//     is unlabeled.
//
// Calls to functions outside the analyzed set conservatively forward
// the union of their argument (and receiver) labels to the result;
// among builtins only append forwards taint. Sanitizer calls (sort.*)
// mask the map-iteration-order label from the sorted object.
package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/typeutil"
)

const (
	sourcePrefix = "s:"
	paramPrefix  = "p:"
	// RecvLabel is the parameter label seeded on a method receiver.
	RecvLabel = paramPrefix + "r"
)

// SourceLabel builds the label carried by values derived from the
// described source.
func SourceLabel(desc string) string { return sourcePrefix + desc }

// ParamLabel builds the label seeded on the i'th flattened parameter.
func ParamLabel(i int) string { return paramPrefix + strconv.Itoa(i) }

// Labels is a set of taint labels.
type Labels map[string]struct{}

func (l Labels) add(label string) bool {
	if _, ok := l[label]; ok {
		return false
	}
	l[label] = struct{}{}
	return true
}

func (l Labels) union(o Labels) bool {
	grew := false
	for label := range o {
		if l.add(label) {
			grew = true
		}
	}
	return grew
}

// Sources returns the source descriptions in l (prefix stripped),
// sorted.
func (l Labels) Sources() []string {
	var out []string
	for label := range l {
		if strings.HasPrefix(label, sourcePrefix) {
			out = append(out, label[len(sourcePrefix):])
		}
	}
	sort.Strings(out)
	return out
}

// params returns the parameter labels in l, sorted.
func (l Labels) params() []string {
	var out []string
	for label := range l {
		if strings.HasPrefix(label, paramPrefix) {
			out = append(out, label)
		}
	}
	sort.Strings(out)
	return out
}

// Summary is a function's caller-visible behavior: the labels its
// returns carry (parameter labels meaning "flows from that argument",
// source labels meaning "produces this taint"), and the parameters
// that reach a sink inside it — which makes the function itself a
// derived sink at its call sites.
type Summary struct {
	Ret  Labels
	Sink map[string]string // parameter label -> sink name reached
}

// Hit is one sink call receiving tainted data.
type Hit struct {
	Pos  token.Pos
	Fn   *callgraph.Func
	Sink string
	// Sources describes what reached the sink, sorted; at least one
	// entry. Containment hits read "<source> via field <key>".
	Sources []string
}

// Config wires an analyzer's source/sink vocabulary into the engine.
// Every field may be left zero.
type Config struct {
	// Source classifies a resolved call as an intrinsic taint source,
	// returning its description ("" when it is none). The call's result
	// carries the taint — or, when viaArg, the object behind its first
	// (pointer) argument does instead (runtime.ReadMemStats).
	Source func(fn *types.Func, call *ast.CallExpr, info *types.Info) (desc string, viaArg bool)
	// MapRange, when non-empty, makes ranging over a map taint the
	// iteration variables with this source description.
	MapRange string
	// Sanitizers are FullName prefixes of the calls that strip the
	// map-iteration label from their first argument (sort.Strings and
	// friends).
	Sanitizers []string
	// Sinks names the configured sinks: FullName -> display name.
	Sinks map[string]string
	// SkipCall suppresses an annotated sink call: no hit is recorded
	// and the call does not contribute to the enclosing function's
	// sink summary, so an audited laundering point stops propagation.
	SkipCall func(pos token.Pos) bool
}

// Interp runs the analysis over a set of functions.
type Interp struct {
	cfg Config
	fns map[string]*callgraph.Func

	fields map[string]Labels // global field/pkg-var key -> source labels

	memo        map[string]*result
	stack       map[string]bool
	hits        map[token.Pos]*Hit
	containMemo map[string][2]string
}

type result struct {
	fn         *callgraph.Func
	obj        map[types.Object]Labels
	fieldLocal map[string]Labels
	sanitized  map[types.Object]bool
	sum        *Summary
}

// Solve analyzes fns — the function table entries the analyzer covers,
// in a fixed order — iterating global rounds until the field store and
// the function summaries stabilize (bounded). Hits and Summary expose
// the final round's results.
func Solve(fns []*callgraph.Func, cfg Config) *Interp {
	in := &Interp{cfg: cfg, fns: make(map[string]*callgraph.Func), fields: make(map[string]Labels)}
	for _, fn := range fns {
		in.fns[fn.Name] = fn
	}
	callgraph.Fixpoint(12, func() int {
		in.memo = make(map[string]*result)
		in.stack = make(map[string]bool)
		in.hits = make(map[token.Pos]*Hit)
		in.containMemo = make(map[string][2]string)
		for _, fn := range fns {
			in.analyze(fn.Name)
		}
		size := 0
		for _, r := range in.memo {
			size += len(r.sum.Ret) + len(r.sum.Sink)
		}
		for _, l := range in.fields {
			size += len(l)
		}
		return size
	})
	return in
}

// Hits returns the sink hits of the final round.
func (in *Interp) Hits() map[token.Pos]*Hit { return in.hits }

// Summary returns the final-round summary for the named function, nil
// when unknown.
func (in *Interp) Summary(name string) *Summary {
	if r := in.memo[name]; r != nil {
		return r.sum
	}
	return nil
}

func (in *Interp) analyze(name string) *result {
	if r, ok := in.memo[name]; ok {
		return r
	}
	fn := in.fns[name]
	if fn == nil || in.stack[name] {
		return nil
	}
	in.stack[name] = true
	defer delete(in.stack, name)

	r := &result{
		fn:         fn,
		obj:        make(map[types.Object]Labels),
		fieldLocal: make(map[string]Labels),
		sanitized:  make(map[types.Object]bool),
		sum:        &Summary{Ret: make(Labels), Sink: make(map[string]string)},
	}
	in.seedParams(r)
	for iter := 0; iter < 32; iter++ {
		if !in.step(r) {
			break
		}
	}
	in.collectReturns(r)
	// Memoize before the sink pass so recursive summary lookups
	// terminate; mutually recursive sink facts settle across Solve
	// rounds.
	in.memo[name] = r
	in.collectSinks(r)
	return r
}

func (in *Interp) seedParams(r *result) {
	d, info := r.fn.Decl, r.fn.Info
	if d.Recv != nil {
		for _, f := range d.Recv.List {
			for _, n := range f.Names {
				if o := info.Defs[n]; o != nil {
					r.obj[o] = Labels{RecvLabel: {}}
				}
			}
		}
	}
	for i, o := range typeutil.Params(info, d) {
		if o != nil {
			r.obj[o] = Labels{ParamLabel(i): {}}
		}
	}
}

// step applies every assignment-shaped transfer function once and
// reports whether any label set grew.
func (in *Interp) step(r *result) bool {
	grew := false
	merge := func(ok bool) {
		if ok {
			grew = true
		}
	}
	ast.Inspect(r.fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				lbl := in.expr(r, n.Rhs[0])
				for _, l := range n.Lhs {
					merge(in.assign(r, l, lbl))
				}
			} else {
				for i := range n.Lhs {
					if i < len(n.Rhs) {
						merge(in.assign(r, n.Lhs[i], in.expr(r, n.Rhs[i])))
					}
				}
			}
		case *ast.ValueSpec:
			for i, nm := range n.Names {
				var lbl Labels
				if len(n.Values) == len(n.Names) {
					lbl = in.expr(r, n.Values[i])
				} else if len(n.Values) == 1 {
					lbl = in.expr(r, n.Values[0])
				}
				merge(in.assign(r, nm, lbl))
			}
		case *ast.RangeStmt:
			lbl := in.expr(r, n.X)
			if in.cfg.MapRange != "" {
				if t := r.fn.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						lbl.add(SourceLabel(in.cfg.MapRange))
					}
				}
			}
			if n.Key != nil {
				merge(in.assign(r, n.Key, lbl))
			}
			if n.Value != nil {
				merge(in.assign(r, n.Value, lbl))
			}
		case *ast.CompositeLit:
			merge(in.compositeWrites(r, n))
		case *ast.CallExpr:
			merge(in.callEffects(r, n))
		}
		return true
	})
	return grew
}

// compositeWrites records struct composite literal fields into the
// field store (local view always, global store for source labels).
func (in *Interp) compositeWrites(r *result, cl *ast.CompositeLit) bool {
	t := r.fn.Info.TypeOf(cl)
	if t == nil {
		return false
	}
	st, ok := typeutil.Deref(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	grew := false
	for i, elt := range cl.Elts {
		var fieldName string
		var val ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			fieldName, val = id.Name, kv.Value
		} else {
			if i >= st.NumFields() {
				break
			}
			fieldName, val = st.Field(i).Name(), elt
		}
		lbl := in.expr(r, val)
		if len(lbl) == 0 {
			continue
		}
		key, ok := typeutil.NamedFieldKey(t, fieldName)
		if !ok {
			continue
		}
		if in.writeFieldKey(r, key, lbl) {
			grew = true
		}
	}
	return grew
}

// callEffects applies a call's side effects on objects: a viaArg
// source taints the pointee, a sanitizer masks map-order labels.
func (in *Interp) callEffects(r *result, call *ast.CallExpr) bool {
	fn := callgraph.Callee(r.fn.Info, call)
	if fn == nil || len(call.Args) == 0 {
		return false
	}
	o := rootObj(r.fn.Info, call.Args[0])
	if o == nil {
		return false
	}
	grew := false
	if in.cfg.Source != nil {
		if desc, viaArg := in.cfg.Source(fn, call, r.fn.Info); viaArg {
			grew = mergeObj(r, o, Labels{SourceLabel(desc): {}})
		}
	}
	name := fn.FullName()
	if !r.sanitized[o] && slices.ContainsFunc(in.cfg.Sanitizers, func(p string) bool { return strings.HasPrefix(name, p) }) {
		r.sanitized[o] = true
		grew = true
	}
	return grew
}

func (in *Interp) assign(r *result, lhs ast.Expr, lbl Labels) bool {
	if len(lbl) == 0 {
		return false
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return false
		}
		obj := r.fn.Info.Defs[l]
		if obj == nil {
			obj = r.fn.Info.Uses[l]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if key, ok := typeutil.PkgVarKey(v); ok {
			return in.writeFieldKey(r, key, lbl)
		}
		return mergeObj(r, v, lbl)
	case *ast.SelectorExpr:
		if s, ok := r.fn.Info.Selections[l]; ok {
			if key, ok := typeutil.FieldKey(s); ok {
				return in.writeFieldKey(r, key, lbl)
			}
			return false
		}
		if v, ok := r.fn.Info.Uses[l.Sel].(*types.Var); ok {
			if key, ok := typeutil.PkgVarKey(v); ok {
				return in.writeFieldKey(r, key, lbl)
			}
		}
		return false
	case *ast.IndexExpr:
		// Element write taints the container.
		if o := rootObj(r.fn.Info, l.X); o != nil {
			return mergeObj(r, o, lbl)
		}
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			return in.assign(r, sel, lbl)
		}
		return false
	case *ast.StarExpr:
		if o := rootObj(r.fn.Info, l.X); o != nil {
			return mergeObj(r, o, lbl)
		}
		return false
	}
	return false
}

func (in *Interp) writeFieldKey(r *result, key string, lbl Labels) bool {
	loc := r.fieldLocal[key]
	if loc == nil {
		loc = make(Labels)
		r.fieldLocal[key] = loc
	}
	grew := loc.union(lbl)
	for label := range lbl {
		if !strings.HasPrefix(label, sourcePrefix) {
			continue
		}
		g := in.fields[key]
		if g == nil {
			g = make(Labels)
			in.fields[key] = g
		}
		if g.add(label) {
			grew = true
		}
	}
	return grew
}

// expr computes the labels of an expression (always a fresh set).
func (in *Interp) expr(r *result, e ast.Expr) Labels {
	out := make(Labels)
	in.exprInto(r, e, out)
	return out
}

func (in *Interp) exprInto(r *result, e ast.Expr, out Labels) {
	switch e := e.(type) {
	case *ast.Ident:
		in.identInto(r, e, out)
	case *ast.SelectorExpr:
		in.selectorInto(r, e, out)
	case *ast.CallExpr:
		out.union(in.callResult(r, e))
	case *ast.BinaryExpr:
		in.exprInto(r, e.X, out)
		in.exprInto(r, e.Y, out)
	case *ast.UnaryExpr:
		in.exprInto(r, e.X, out)
	case *ast.StarExpr:
		in.exprInto(r, e.X, out)
	case *ast.ParenExpr:
		in.exprInto(r, e.X, out)
	case *ast.TypeAssertExpr:
		in.exprInto(r, e.X, out)
	case *ast.IndexExpr:
		in.exprInto(r, e.X, out)
	case *ast.IndexListExpr:
		in.exprInto(r, e.X, out)
	case *ast.SliceExpr:
		in.exprInto(r, e.X, out)
	case *ast.CompositeLit:
		// Struct composites write their field keys (compositeWrites);
		// only non-struct composites (slices, arrays, maps) label the
		// composed value itself.
		if t := r.fn.Info.TypeOf(e); t != nil {
			if _, isStruct := typeutil.Deref(t).Underlying().(*types.Struct); isStruct {
				return
			}
		}
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				in.exprInto(r, kv.Value, out)
			} else {
				in.exprInto(r, elt, out)
			}
		}
	case *ast.FuncLit:
		in.funcLitInto(r, e, out)
	}
}

func (in *Interp) identInto(r *result, id *ast.Ident, out Labels) {
	obj := r.fn.Info.Uses[id]
	if obj == nil {
		obj = r.fn.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if key, ok := typeutil.PkgVarKey(v); ok {
		out.union(in.fields[key])
		out.union(r.fieldLocal[key])
		return
	}
	lbl := r.obj[obj]
	if len(lbl) == 0 {
		return
	}
	if r.sanitized[obj] && in.cfg.MapRange != "" {
		masked := SourceLabel(in.cfg.MapRange)
		for label := range lbl {
			if label != masked {
				out.add(label)
			}
		}
		return
	}
	out.union(lbl)
}

func (in *Interp) selectorInto(r *result, sel *ast.SelectorExpr, out Labels) {
	if s, ok := r.fn.Info.Selections[sel]; ok {
		if key, ok := typeutil.FieldKey(s); ok {
			out.union(in.fields[key])
			out.union(r.fieldLocal[key])
		}
		// A read through a tainted object is tainted; field writes do
		// not taint the parent, so this stays precise.
		in.exprInto(r, sel.X, out)
		return
	}
	if v, ok := r.fn.Info.Uses[sel.Sel].(*types.Var); ok {
		if key, ok := typeutil.PkgVarKey(v); ok {
			out.union(in.fields[key])
			out.union(r.fieldLocal[key])
		}
	}
}

// funcLitInto labels a closure value with everything it captures: the
// labels of referenced outer objects and field keys. A closure handed
// to a journal-rewrite sink carries the data it will encode.
func (in *Interp) funcLitInto(r *result, lit *ast.FuncLit, out Labels) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := r.fn.Info.Uses[n]
			if obj == nil {
				return true
			}
			if _, tracked := r.obj[obj]; tracked {
				in.identInto(r, n, out)
			} else if v, ok := obj.(*types.Var); ok {
				if _, isPkg := typeutil.PkgVarKey(v); isPkg {
					in.identInto(r, n, out)
				}
			}
		case *ast.SelectorExpr:
			if s, ok := r.fn.Info.Selections[n]; ok {
				if key, ok := typeutil.FieldKey(s); ok {
					out.union(in.fields[key])
					out.union(r.fieldLocal[key])
				}
			}
		}
		return true
	})
}

func (in *Interp) callResult(r *result, call *ast.CallExpr) Labels {
	out := make(Labels)
	argUnion := func() {
		for _, a := range call.Args {
			in.exprInto(r, a, out)
		}
		if recv := recvExpr(r.fn.Info, call); recv != nil {
			in.exprInto(r, recv, out)
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := r.fn.Info.Uses[id].(*types.Builtin); ok {
			// append forwards taint; the other builtins produce
			// clean values (len of a map is deterministic).
			if b.Name() == "append" {
				for _, a := range call.Args {
					in.exprInto(r, a, out)
				}
			}
			return out
		}
	}
	fn := callgraph.Callee(r.fn.Info, call)
	if fn == nil {
		// Conversion, func value or closure call: forward argument
		// taint.
		argUnion()
		return out
	}
	if in.cfg.Source != nil {
		if desc, viaArg := in.cfg.Source(fn, call, r.fn.Info); desc != "" && !viaArg {
			out.add(SourceLabel(desc))
			argUnion()
			return out
		}
	}
	if s := in.analyze(fn.FullName()); s != nil {
		args := argsOf(r.fn.Info, call)
		sig, _ := fn.Type().(*types.Signature)
		for label := range s.sum.Ret {
			if strings.HasPrefix(label, sourcePrefix) {
				out.add(label)
				continue
			}
			for _, a := range args.forLabel(label, sig) {
				in.exprInto(r, a, out)
			}
		}
		return out
	}
	// External function: conservatively forward the argument taint.
	argUnion()
	return out
}

func (in *Interp) collectReturns(r *result) {
	d := r.fn.Decl
	var named []types.Object
	if d.Type.Results != nil {
		for _, f := range d.Type.Results.List {
			for _, nm := range f.Names {
				if o := r.fn.Info.Defs[nm]; o != nil {
					named = append(named, o)
				}
			}
		}
	}
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not ours
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for _, o := range named {
				r.sum.Ret.union(r.obj[o])
			}
			return true
		}
		for _, res := range ret.Results {
			in.exprInto(r, res, r.sum.Ret)
		}
		return true
	})
}

func (in *Interp) collectSinks(r *result) {
	ast.Inspect(r.fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callgraph.Callee(r.fn.Info, call)
		if fn == nil {
			return true
		}
		name := fn.FullName()
		sinkName := in.cfg.Sinks[name]
		var derived map[string]string
		if sinkName == "" {
			if s := in.analyze(name); s != nil && len(s.sum.Sink) > 0 {
				derived = s.sum.Sink
			}
		}
		if sinkName == "" && derived == nil {
			return true
		}
		if in.cfg.SkipCall != nil && in.cfg.SkipCall(call.Pos()) {
			return true // audited laundering point
		}
		args := argsOf(r.fn.Info, call)
		sig, _ := fn.Type().(*types.Signature)
		// Containment (static-type walk for tainted field keys) applies
		// only at the configured sink itself: there the passed value's
		// type is what gets encoded/hashed. At derived-sink calls the
		// summary already models the value flow, and the caller's
		// receiver/argument types (a whole Runner, a Server) would make
		// every method call a finding.
		intrinsic := sinkName != ""
		check := func(e ast.Expr, sink string) {
			lbl := in.expr(r, e)
			srcs := lbl.Sources()
			if len(srcs) == 0 && intrinsic {
				if key, desc, ok := in.contains(r.fn.Info.TypeOf(e)); ok {
					srcs = []string{fmt.Sprintf("%s via field %s", desc, key)}
				} else if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
					// A closure handed to a sink (a callback that
					// encodes records) writes what it references.
					if key, desc, ok := in.closureContains(r, lit); ok {
						srcs = []string{fmt.Sprintf("%s via field %s", desc, key)}
					}
				}
			}
			if len(srcs) > 0 {
				in.addHit(r, call.Pos(), sink, srcs)
			}
			for _, pl := range lbl.params() {
				if _, ok := r.sum.Sink[pl]; !ok {
					r.sum.Sink[pl] = sink
				}
			}
		}
		if sinkName != "" {
			if args.recv != nil {
				check(args.recv, sinkName)
			}
			for _, a := range args.args {
				check(a, sinkName)
			}
			return true
		}
		labels := make([]string, 0, len(derived))
		for pl := range derived {
			labels = append(labels, pl)
		}
		sort.Strings(labels)
		for _, pl := range labels {
			for _, e := range args.forLabel(pl, sig) {
				check(e, derived[pl])
			}
		}
		return true
	})
}

func (in *Interp) addHit(r *result, pos token.Pos, sink string, srcs []string) {
	h := in.hits[pos]
	if h == nil {
		h = &Hit{Pos: pos, Fn: r.fn, Sink: sink}
		in.hits[pos] = h
	}
	seen := make(map[string]bool, len(h.Sources))
	for _, s := range h.Sources {
		seen[s] = true
	}
	for _, s := range srcs {
		if !seen[s] {
			h.Sources = append(h.Sources, s)
			seen[s] = true
		}
	}
	sort.Strings(h.Sources)
}

// closureContains containment-checks everything a function literal
// references: the static types of the locals and field selections its
// body reads are what it can hand to the sink it was passed to.
func (in *Interp) closureContains(r *result, lit *ast.FuncLit) (string, string, bool) {
	var key, desc string
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := r.fn.Info.Uses[n].(*types.Var); ok {
				if k, d, ok := in.contains(v.Type()); ok {
					key, desc, found = k, d, true
				}
			}
		case *ast.SelectorExpr:
			if s, ok := r.fn.Info.Selections[n]; ok && s.Kind() == types.FieldVal {
				if k, d, ok := in.contains(s.Type()); ok {
					key, desc, found = k, d, true
				}
			}
		}
		return !found
	})
	return key, desc, found
}

// contains walks t's structure for a globally tainted field key,
// returning the key and one source description.
func (in *Interp) contains(t types.Type) (string, string, bool) {
	return in.containsRec(t, make(map[string]bool), 0)
}

func (in *Interp) containsRec(t types.Type, seen map[string]bool, depth int) (string, string, bool) {
	if t == nil || depth > 12 {
		return "", "", false
	}
	switch u := t.(type) {
	case *types.Pointer:
		return in.containsRec(u.Elem(), seen, depth+1)
	case *types.Slice:
		return in.containsRec(u.Elem(), seen, depth+1)
	case *types.Array:
		return in.containsRec(u.Elem(), seen, depth+1)
	case *types.Map:
		return in.containsRec(u.Elem(), seen, depth+1)
	}
	named, _ := types.Unalias(t).(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return "", "", false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if seen[key] {
		return "", "", false
	}
	seen[key] = true
	if c, ok := in.containMemo[key]; ok {
		return c[0], c[1], c[0] != ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		fkey := key + "." + st.Field(i).Name()
		if srcs := in.fields[fkey].Sources(); len(srcs) > 0 {
			in.containMemo[key] = [2]string{fkey, srcs[0]}
			return fkey, srcs[0], true
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		if fk, d, ok := in.containsRec(st.Field(i).Type(), seen, depth+1); ok {
			in.containMemo[key] = [2]string{fk, d}
			return fk, d, true
		}
	}
	in.containMemo[key] = [2]string{"", ""}
	return "", "", false
}

// callArgs pairs a call's receiver and arguments with parameter
// labels.
type callArgs struct {
	recv ast.Expr
	args []ast.Expr
}

func argsOf(info *types.Info, call *ast.CallExpr) callArgs {
	ca := callArgs{args: call.Args}
	ca.recv = recvExpr(info, call)
	return ca
}

func recvExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return sel.X
	}
	return nil
}

func (ca callArgs) forLabel(label string, sig *types.Signature) []ast.Expr {
	if label == RecvLabel {
		if ca.recv != nil {
			return []ast.Expr{ca.recv}
		}
		return nil
	}
	idx, err := strconv.Atoi(strings.TrimPrefix(label, paramPrefix))
	if err != nil {
		return nil
	}
	if sig != nil && sig.Variadic() && idx == sig.Params().Len()-1 {
		if idx < len(ca.args) {
			return ca.args[idx:]
		}
		return nil
	}
	if idx < len(ca.args) {
		return []ast.Expr{ca.args[idx]}
	}
	return nil
}

func mergeObj(r *result, o types.Object, lbl Labels) bool {
	cur := r.obj[o]
	if cur == nil {
		cur = make(Labels)
		r.obj[o] = cur
	}
	return cur.union(lbl)
}

func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}
