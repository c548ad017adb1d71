// Package analysistest runs a pimlint analyzer over testdata packages
// and checks its diagnostics against `// want` comments, mirroring the
// upstream golang.org/x/tools analysistest contract:
//
//	m := map[int]int{}
//	for k := range m { // want `range over map`
//	}
//
// Each `want` carries one or more double-quoted or backquoted regular
// expressions; every expectation must be matched by a diagnostic on
// the same line, and every diagnostic must be claimed by an
// expectation. Test packages live under testdata/src/<name> and are
// typechecked from source (std imports resolve through the source
// importer, so no build cache or network is required).
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
)

// Run analyzes the one package in dir (typically
// filepath.Join("testdata", "src", name)), giving it the import path
// pkgPath — analyzers that scope themselves by package path (the
// determinism checks) see that path.
func Run(t *testing.T, dir string, a *analysis.Analyzer, cfg lintcfg.Config, pkgPath string) {
	t.Helper()
	run(t, a, cfg, []string{pkgPath}, func(string) string { return dir })
}

// RunPackages analyzes several testdata packages as one program. root
// is the testdata source root (typically filepath.Join("testdata",
// "src")); each entry of pkgPaths is both an import path and a
// directory relative to root, listed in dependency order so later
// packages may import earlier ones. `want` expectations are collected
// from every package's files.
func RunPackages(t *testing.T, root string, a *analysis.Analyzer, cfg lintcfg.Config, pkgPaths []string) {
	t.Helper()
	run(t, a, cfg, pkgPaths, func(path string) string { return filepath.Join(root, filepath.FromSlash(path)) })
}

func run(t *testing.T, a *analysis.Analyzer, cfg lintcfg.Config, pkgPaths []string, dirOf func(string) string) {
	t.Helper()
	fset := token.NewFileSet()
	checked := make(map[string]*types.Package)
	std := importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*analysis.Package
	for _, path := range pkgPaths {
		files, err := filepath.Glob(filepath.Join(dirOf(path), "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("analysistest: no Go files in %s (%v)", dirOf(path), err)
		}
		pkg, err := analysis.Typecheck(fset, imp, path, files)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		checked[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	Check(t, analysis.NewProgram(fset, pkgs), a, cfg)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one `want` regexp anchored to a file line.
type expectation struct {
	posn token.Position // file:line of the comment
	re   *regexp.Regexp
	met  bool
}

var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(prog *analysis.Program) ([]*expectation, error) {
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.AllFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					_, text, ok := strings.Cut(c.Text, "want ")
					if !ok {
						continue
					}
					posn := prog.Fset.Position(c.Pos())
					patterns := wantRe.FindAllString(text, -1)
					if len(patterns) == 0 {
						return nil, fmt.Errorf("%s: want comment with no quoted pattern", posn)
					}
					for _, p := range patterns {
						pat := strings.Trim(p, "`")
						if p[0] == '"' {
							var err error
							if pat, err = strconv.Unquote(p); err != nil {
								return nil, fmt.Errorf("%s: bad want pattern %s: %v", posn, p, err)
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want regexp %q: %v", posn, pat, err)
						}
						wants = append(wants, &expectation{posn: posn, re: re})
					}
				}
			}
		}
	}
	return wants, nil
}

// Check runs the analyzer over an already loaded program and reports
// every mismatch between its diagnostics and the `// want`
// expectations in the program's files, test files included, as a test
// error.
func Check(t *testing.T, prog *analysis.Program, a *analysis.Analyzer, cfg lintcfg.Config) {
	t.Helper()
	wants, err := collectWants(prog)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, d := range analysis.Run(prog, cfg, a) {
		posn := prog.Fset.Position(d.Pos)
		claimed := false
		for _, w := range wants {
			if !w.met && w.posn.Filename == posn.Filename && w.posn.Line == posn.Line && w.re.MatchString(d.Message) {
				w.met, claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic from %s: %s", posn, a.Name, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s: expected diagnostic matching %q, got none", w.posn, w.re)
		}
	}
}
