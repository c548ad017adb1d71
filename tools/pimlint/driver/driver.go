// Package driver loads Go packages and applies the pimlint analyzers
// to them. There is one path: Load resolves patterns with `go list
// -test -deps -export`, typechecks every target against the compiler's
// export data — each package together with its in-package _test.go
// files, the unit the compiler builds for `go test` — and Run hands the
// resulting analysis.Program to every analyzer. It needs only the go
// toolchain and its build cache: no network, no GOPATH layout.
//
// External test packages (package foo_test) are not loaded: they have
// their own import path, which no path-scoped rule covers.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/annot"
	"repro/tools/pimlint/lintcfg"
)

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath      string
	Dir             string
	DepOnly         bool
	ForTest         string
	Export          string
	CompiledGoFiles []string
	Error           *struct{ Err string }
}

// Load resolves patterns to packages (plus their dependency closure
// for type information) and returns the program over every
// non-dependency match.
func Load(patterns ...string) (*analysis.Program, error) {
	args := append([]string{
		"list", "-test", "-export", "-deps", "-compiled",
		"-json=ImportPath,Dir,DepOnly,ForTest,Export,CompiledGoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	units := make(map[string]*listedPackage)
	var targets []string
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		// "p [p.test]" is p recompiled with its in-package test files:
		// a superset of p's own listing, so it replaces it as p's unit.
		// Every other bracketed or ".test" listing is an external test
		// package, its generated main, or a dependency rebuilt for one.
		path, variant, _ := strings.Cut(lp.ImportPath, " ")
		if variant != "" && lp.ForTest != path || strings.HasSuffix(path, ".test") {
			continue
		}
		if variant == "" && lp.Export != "" {
			exports[path] = lp.Export
		}
		if !lp.DepOnly && len(lp.CompiledGoFiles) > 0 {
			if units[path] == nil {
				targets = append(targets, path)
				units[path] = lp
			} else if variant != "" {
				units[path] = lp
			}
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*analysis.Package
	for _, path := range targets {
		lp := units[path]
		var files []string
		for _, name := range lp.CompiledGoFiles {
			// Assembly and cgo intermediates carry no AST. go list emits
			// in-tree names relative to the package directory and
			// cache-generated ones absolute.
			if !strings.HasSuffix(name, ".go") {
				continue
			}
			if !filepath.IsAbs(name) {
				name = filepath.Join(lp.Dir, name)
			}
			files = append(files, name)
		}
		pkg, err := analysis.Typecheck(fset, imp, path, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return analysis.NewProgram(fset, pkgs), nil
}

// Finding is one diagnostic with its analyzer attribution.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Posn, f.Message, f.Analyzer)
}

// Run applies every analyzer to the program and returns the findings
// in one total order (position, then analyzer, then message), so two
// runs over the same tree print the same bytes. An annotation whose
// marker none of the analyzers reads is a finding too, attributed to
// "pimlint": it suppresses nothing, so it is either a typo or a hatch
// that outlived its analyzer.
func Run(prog *analysis.Program, cfg lintcfg.Config, analyzers []*analysis.Analyzer) []Finding {
	var findings []Finding
	read := make(map[string]bool)
	for _, a := range analyzers {
		read[a.Marker] = true
		for _, d := range analysis.Run(prog, cfg, a) {
			findings = append(findings, Finding{a.Name, prog.Fset.Position(d.Pos), d.Message})
		}
	}
	for _, e := range prog.Annot.Unread(read) {
		findings = append(findings, Finding{"pimlint", prog.Fset.Position(e.Pos),
			fmt.Sprintf("//%s%s is read by no analyzer; remove it", annot.Prefix, e.Marker)})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		switch {
		case a.Posn.Filename != b.Posn.Filename:
			return a.Posn.Filename < b.Posn.Filename
		case a.Posn.Line != b.Posn.Line:
			return a.Posn.Line < b.Posn.Line
		case a.Posn.Column != b.Posn.Column:
			return a.Posn.Column < b.Posn.Column
		case a.Analyzer != b.Analyzer:
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}
