package driver_test

import (
	"strings"
	"testing"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/detmap"
	"repro/tools/pimlint/driver"
	"repro/tools/pimlint/lintcfg"
)

// TestLoadIncludesInPackageTests loads a package through the real
// loader (`go list -test`) and requires the finding in its _test.go
// file: a package's in-package tests are part of its unit for the site
// analyzers, kept out of the whole-program function table, and its
// external test package is not loaded at all.
func TestLoadIncludesInPackageTests(t *testing.T) {
	const path = "repro/tools/pimlint/driver/testdata/src/withtest"
	prog, err := driver.Load("./testdata/src/withtest")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pkgs) != 1 || prog.Pkgs[0].Path != path {
		t.Fatalf("loaded %d packages, want exactly %s", len(prog.Pkgs), path)
	}
	if pkg := prog.Pkgs[0]; len(pkg.Files) != 1 || len(pkg.TestFiles) != 1 {
		t.Errorf("unit has %d files and %d test files, want 1 and 1", len(pkg.Files), len(pkg.TestFiles))
	}
	if prog.Funcs[path+".Sum"] == nil || prog.Funcs[path+".TestSum"] != nil {
		t.Errorf("function table must hold Sum and not TestSum; has %d entries", len(prog.Funcs))
	}
	analysistest.Check(t, prog, detmap.Analyzer, lintcfg.Config{lintcfg.DeterministicPackages: {path}})

	// The same path through Run: one finding, attributed and positioned.
	findings := driver.Run(prog, lintcfg.Config{lintcfg.DeterministicPackages: {path}}, []*analysis.Analyzer{detmap.Analyzer})
	if len(findings) != 1 || findings[0].Analyzer != "detmap" || findings[0].Posn.Line != 8 {
		t.Errorf("Run findings = %v, want one detmap finding on line 8 of the test file", findings)
	}
}

// TestUnreadMarkerIsAFinding: an annotation whose marker no analyzer of
// the run reads suppresses nothing, so the driver reports it — a hatch
// cannot outlive the analyzer it was written for.
func TestUnreadMarkerIsAFinding(t *testing.T) {
	prog, err := driver.Load("./testdata/src/stale")
	if err != nil {
		t.Fatal(err)
	}
	findings := driver.Run(prog, lintcfg.Config{}, []*analysis.Analyzer{detmap.Analyzer})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one", findings)
	}
	f := findings[0]
	if f.Analyzer != "pimlint" || f.Posn.Line != 9 || !strings.Contains(f.Message, "//pimlint:retired is read by no analyzer") {
		t.Errorf("finding = %v, want the unread pimlint:retired marker on line 9", f)
	}
}
