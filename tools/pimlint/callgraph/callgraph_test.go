package callgraph_test

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/callgraph"
)

// TestOneGraphBothQueries builds the program index once over hotalloc's
// fodder and asks it the two kinds of reachability question the
// analyzers ask: hotalloc's, pruned at //pimlint:coldpath call sites
// and declarations, and ctxflow's, unpruned. Both must be answered by
// the same graph — the edge positions carry what the pruning needs.
func TestOneGraphBothQueries(t *testing.T) {
	fset := token.NewFileSet()
	file := filepath.Join("..", "analyzers", "hotalloc", "testdata", "src", "hotpkg", "hotpkg.go")
	pkg, err := analysis.Typecheck(fset, importer.ForCompiler(fset, "source", nil), "hotpkg", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.NewProgram(fset, []*analysis.Package{pkg})
	root := prog.Funcs["(*hotpkg.Engine).Tick"]
	if root == nil {
		t.Fatalf("root not in the function table; have %d functions", len(prog.Funcs))
	}
	names := func(reached map[string]*callgraph.Func) []string {
		var out []string
		for name := range reached {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	eq := func(got, want []string) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// Unpruned: everything Tick can reach, the interface implementation
	// and the annotated callees included.
	all := names(prog.Reachable([]*callgraph.Func{root}, nil))
	if want := []string{"(*hotpkg.Engine).Tick", "(*hotpkg.Engine).audit", "(*hotpkg.Engine).flush", "(*hotpkg.Engine).helper", "(*hotpkg.Impl).Apply"}; !eq(all, want) {
		t.Errorf("unpruned reachability = %v, want %v", all, want)
	}

	// Pruned: the call on the annotated line drops flush, the annotated
	// declaration drops audit.
	cold := func(pos token.Pos) bool { return prog.Annot.Covers("coldpath", pos) }
	hot := names(prog.Reachable([]*callgraph.Func{root}, func(site token.Pos, callee *callgraph.Func) bool {
		return cold(site) || cold(callee.Decl.Pos())
	}))
	if want := []string{"(*hotpkg.Engine).Tick", "(*hotpkg.Engine).helper", "(*hotpkg.Impl).Apply"}; !eq(hot, want) {
		t.Errorf("pruned reachability = %v, want %v", hot, want)
	}

	// Callees outside the analyzed set stay visible by name.
	sawFmt := false
	for _, c := range root.Calls {
		sawFmt = sawFmt || c.Callee == "fmt.Println"
	}
	if !sawFmt {
		t.Error("Tick's call to fmt.Println is not among its edges")
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestInterfaceCallAcrossPackages: an interface call resolves to its
// implementation in another analyzed package although the caller sees
// the interface through a separately typechecked copy of that package,
// as it does when dependencies load from export data.
func TestInterfaceCallAcrossPackages(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) []string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return []string{path}
	}
	sinkSrc := write("sink.go", `package sink
type Event struct{ N int }
type Sink interface{ Record(Event) }
type Ring struct{ last Event }
func (r *Ring) Record(e Event) { r.last = e }
`)
	userSrc := write("user.go", `package user
import "sink"
type Ctl struct{ s sink.Sink }
func (c *Ctl) Tick() { c.s.Record(sink.Event{N: 1}) }
`)
	fset := token.NewFileSet()
	check := func(path string, files []string, imp types.Importer) *analysis.Package {
		pkg, err := analysis.Typecheck(fset, imp, path, files)
		if err != nil {
			t.Fatal(err)
		}
		return pkg
	}
	sink := check("sink", sinkSrc, importer.ForCompiler(fset, "source", nil))
	dep := check("sink", sinkSrc, importer.ForCompiler(fset, "source", nil))
	user := check("user", userSrc, importerFunc(func(string) (*types.Package, error) { return dep.Types, nil }))
	prog := analysis.NewProgram(fset, []*analysis.Package{sink, user})
	reached := prog.Reachable([]*callgraph.Func{prog.Funcs["(*user.Ctl).Tick"]}, nil)
	if reached["(*sink.Ring).Record"] == nil {
		t.Errorf("Tick's call through sink.Sink does not reach (*sink.Ring).Record; reached %d functions", len(reached))
	}
}

func TestFixpoint(t *testing.T) {
	sizes := []int{1, 3, 4, 4, 9}
	rounds := 0
	callgraph.Fixpoint(10, func() int { rounds++; return sizes[rounds-1] })
	if rounds != 4 {
		t.Errorf("stopped after %d rounds, want 4 (the first repeat of a size)", rounds)
	}
	rounds = 0
	callgraph.Fixpoint(3, func() int { rounds++; return rounds })
	if rounds != 3 {
		t.Errorf("ran %d rounds, want the bound 3", rounds)
	}
}
