// Package analysis defines what a pimlint analyzer is and what it is
// run on.
//
// An Analyzer is a function of one Program — every target package of
// the invocation, typechecked, with the function table, the call graph
// and the annotation index built once — and the lintcfg.Config. There
// is no per-package hook and no state carried between packages: a
// check that only looks at one file at a time simply loops over
// Program.Pkgs. The vocabulary (Analyzer, Pass, Diagnostic) follows
// golang.org/x/tools/go/analysis, but the suite is whole-program by
// construction and builds offline with only the standard library; it
// is not a drop-in for the upstream framework.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/pimlint/annot"
	"repro/tools/pimlint/callgraph"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string

	// Marker, when set, is the annotation marker (the word after
	// "pimlint:") that suppresses this analyzer's diagnostics on the
	// annotated line or the line below it.
	Marker string

	// Audited marks the annotation as an audited claim: it buys
	// suppression only together with a justification, and a bare
	// marker is reported as a finding of this analyzer.
	Audited bool

	// Run applies the analyzer to the program.
	Run func(*Pass)
}

// Package is one typechecked target package. The files of its
// in-package tests are part of the same unit and the same TypesInfo,
// kept apart so whole-program analyzers index production code only.
type Package struct {
	Path      string
	Types     *types.Package
	TypesInfo *types.Info
	Files     []*ast.File // non-test files
	TestFiles []*ast.File // _test.go files of the same package

	testPos map[*token.File]bool
}

// AllFiles returns the package's files, test files included: what the
// site analyzers walk.
func (p *Package) AllFiles() []*ast.File {
	return append(p.Files[:len(p.Files):len(p.Files)], p.TestFiles...)
}

// TypeNames returns the package-level types declared outside test
// files, in name order.
func (p *Package) TypeNames(fset *token.FileSet) []*types.TypeName {
	var out []*types.TypeName
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !p.testPos[fset.File(tn.Pos())] {
			out = append(out, tn)
		}
	}
	return out
}

// Field is one exported field of an exported struct type.
type Field struct {
	Owner string // declaring struct type name
	Var   *types.Var
	Key   string // stable "pkgpath.TypeName.FieldName"
}

// ExportedFields lists the exported fields of the package's exported
// struct types: what cfglive tracks.
func (p *Package) ExportedFields(fset *token.FileSet) []Field {
	var out []Field
	for _, tn := range p.TypeNames(fset) {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || !tn.Exported() {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				out = append(out, Field{tn.Name(), f, p.Path + "." + tn.Name() + "." + f.Name()})
			}
		}
	}
	return out
}

// Typecheck parses and checks one package from its file list; names
// ending in _test.go become its TestFiles. This is the one place a
// types.Info is built, for the driver and the test harness alike.
func Typecheck(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	pkg := &Package{Path: path, testPos: make(map[*token.File]bool)}
	var all []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		all = append(all, f)
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
			pkg.testPos[fset.File(f.Pos())] = true
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var err error
	pkg.Types, err = (&types.Config{Importer: imp}).Check(path, fset, all, pkg.TypesInfo)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return pkg, nil
}

// Program is everything one pimlint invocation knows about the tree:
// the target packages, the table of functions they declare (outside
// test files) with the call graph over it, and every annotation.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	*callgraph.Graph
	Annot *annot.Index

	byPath map[string]*Package
}

// NewProgram indexes the packages, once, for every analyzer.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	prog := &Program{Fset: fset, Pkgs: pkgs, Annot: annot.NewIndex(fset), byPath: make(map[string]*Package)}
	b := callgraph.NewBuilder()
	for _, pkg := range pkgs {
		prog.byPath[pkg.Path] = pkg
		for _, file := range pkg.AllFiles() {
			prog.Annot.AddFile(file)
		}
		b.AddPackage(pkg.Types, pkg.TypesInfo, pkg.Files, pkg.TypeNames(fset))
	}
	prog.Graph = b.Finish()
	return prog
}

// Package returns the loaded target package at path, nil when the
// invocation did not load it.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass is one analyzer's run over the program.
type Pass struct {
	*Program
	Cfg      lintcfg.Config
	Analyzer *Analyzer
	Report   func(Diagnostic)
}

// Covered reports whether the analyzer's annotation covers pos.
func (p *Pass) Covered(pos token.Pos) bool {
	return p.Analyzer.Marker != "" && p.Annot.Covers(p.Analyzer.Marker, pos)
}

// Reportf emits a diagnostic at pos unless the analyzer's annotation
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if !p.Covered(pos) {
		p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
}

// Unresolved reports a configured name that resolves to nothing: the
// entry under key names something the loaded tree does not declare,
// although its package — for a bare name, some package the scope list
// covers — is among the invocation's targets. A renamed function or
// type would otherwise switch its check off behind a green run. The
// finding sits on that package's clause. An entry whose package was
// not loaded stays quiet, so partial runs do.
func (p *Pass) Unresolved(key lintcfg.Key, entry string, scope lintcfg.Key) {
	for _, pkg := range p.Pkgs {
		if pkg.Path == lintcfg.PackageOf(entry) || scope != "" && p.Cfg.Covers(scope, pkg.Path) {
			p.Report(Diagnostic{Pos: pkg.AllFiles()[0].Name.Pos(), Message: fmt.Sprintf(
				"%s entry %q resolves to nothing in the loaded tree: fix the entry, or the check it configures is off", key, entry)})
			return
		}
	}
}

// Inspect walks every file — test files included — of the packages the
// list under key covers: the traversal of the site analyzers, whose
// rules hold for a package's tests as for its production code.
func (p *Pass) Inspect(key lintcfg.Key, visit func(pkg *Package, n ast.Node) bool) {
	for _, pkg := range p.Pkgs {
		if p.Cfg.Covers(key, pkg.Path) {
			for _, file := range pkg.AllFiles() {
				ast.Inspect(file, func(n ast.Node) bool { return visit(pkg, n) })
			}
		}
	}
}

// FuncsIn returns the function table entries declared in the packages
// the list under key covers, in name order.
func (p *Pass) FuncsIn(key lintcfg.Key) []*callgraph.Func {
	var out []*callgraph.Func
	for _, fn := range p.Funcs {
		if p.Cfg.Covers(key, fn.Pkg.Path()) {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Roots resolves the function names under key against the function
// table, reporting the ones that resolve to nothing.
func (p *Pass) Roots(key lintcfg.Key) []*callgraph.Func {
	var roots []*callgraph.Func
	for _, name := range p.Cfg[key] {
		if fn := p.Funcs[name]; fn != nil {
			roots = append(roots, fn)
		} else {
			p.Unresolved(key, name, "")
		}
	}
	return roots
}

// Run applies one analyzer to the program and returns its diagnostics,
// bare audited annotations included.
func Run(prog *Program, cfg lintcfg.Config, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{Program: prog, Cfg: cfg, Analyzer: a, Report: func(d Diagnostic) { diags = append(diags, d) }}
	a.Run(pass)
	if a.Audited {
		for _, e := range prog.Annot.Bare(a.Marker) {
			pass.Report(Diagnostic{e.Pos, fmt.Sprintf("//%s%s needs a justification on the annotation line", annot.Prefix, a.Marker)})
		}
	}
	return diags
}
