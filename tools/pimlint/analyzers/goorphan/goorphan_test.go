package goorphan_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/goorphan"
	"repro/tools/pimlint/lintcfg"
)

// TestGoorphan covers tracked goroutines (Done in the literal, in a
// named callee, and transitively through a callee of the literal),
// untracked literals and named launches flagged, and the
// //pimlint:detached hatch (justified suppresses, bare is a finding).
func TestGoorphan(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.ConcurrencyPackages: {"gopkg"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "gopkg"), goorphan.Analyzer, cfg, "gopkg")
}
