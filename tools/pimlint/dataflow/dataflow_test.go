package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/dataflow"
)

// A dependency-free program exercising the engine's core moves:
// intrinsic source, identity function, global field store, derived
// sink, and a clean control.
const src = `package p

func nondet() int { return 0 }

func sink(v int) {}

func id(v int) int { return v }

type box struct{ n int }

var global box

func setGlobal() { global.n = nondet() }

func useGlobal() { sink(global.n) }

func direct() { sink(id(nondet())) }

func wrap(v int) { sink(v) }

func callsWrap() { wrap(nondet()) }

func clean(v int) { sink(v) }

func stamped() int { return nondet() }
`

func buildInterp(t *testing.T) (*dataflow.Interp, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	b := callgraph.NewBuilder()
	b.AddPackage(pkg, info, []*ast.File{file}, nil)
	var fns []*callgraph.Func
	for _, fn := range b.Finish().Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	in := dataflow.Solve(fns, dataflow.Config{
		Source: func(fn *types.Func, call *ast.CallExpr, ti *types.Info) (string, bool) {
			if fn.Name() == "nondet" {
				return "test nondet", false
			}
			return "", false
		},
		Sinks: map[string]string{"p.sink": "p.sink"},
	})
	return in, fset
}

func TestHits(t *testing.T) {
	in, fset := buildInterp(t)

	hitFuncs := map[string][]string{}
	for _, h := range in.Hits() {
		hitFuncs[h.Fn.Name] = h.Sources
		if h.Sink != "p.sink" {
			t.Errorf("hit in %s names sink %q, want p.sink", h.Fn.Name, h.Sink)
		}
		if posn := fset.Position(h.Pos); !posn.IsValid() {
			t.Errorf("hit in %s has an invalid position", h.Fn.Name)
		}
	}
	// Taint reaches the sink through the global field store
	// (setGlobal/useGlobal never call each other), through the
	// identity function's summary (direct), and through the derived
	// sink wrap (the hit lands at callsWrap's call site).
	for _, want := range []string{"p.useGlobal", "p.direct", "p.callsWrap"} {
		srcs, ok := hitFuncs[want]
		if !ok {
			t.Errorf("no hit in %s; hits: %v", want, hitFuncs)
			continue
		}
		if len(srcs) != 1 || srcs[0] != "test nondet" {
			t.Errorf("%s sources = %v, want [test nondet]", want, srcs)
		}
	}
	// The parameter-only flows stay quiet: wrap's own sink call and
	// the clean control carry no source labels.
	for _, quiet := range []string{"p.wrap", "p.clean", "p.setGlobal"} {
		if _, ok := hitFuncs[quiet]; ok {
			t.Errorf("unexpected hit in %s", quiet)
		}
	}
}

func TestSummaries(t *testing.T) {
	in, _ := buildInterp(t)

	// stamped returns the intrinsic source's value, so its own
	// summary produces the taint for callers.
	if sum := in.Summary("p.stamped"); sum == nil || len(sum.Ret.Sources()) != 1 {
		t.Errorf("p.stamped summary = %+v, want one source label on Ret", sum)
	}
	// id forwards its parameter to its return.
	sum := in.Summary("p.id")
	if sum == nil {
		t.Fatal("no summary for p.id")
	}
	if _, ok := sum.Ret[dataflow.ParamLabel(0)]; !ok {
		t.Errorf("p.id Ret = %v, want the param 0 label", sum.Ret)
	}
	// wrap sinks its parameter, making it a derived sink.
	sum = in.Summary("p.wrap")
	if sum == nil {
		t.Fatal("no summary for p.wrap")
	}
	if got := sum.Sink[dataflow.ParamLabel(0)]; got != "p.sink" {
		t.Errorf("p.wrap Sink[p:0] = %q, want p.sink", got)
	}
}
