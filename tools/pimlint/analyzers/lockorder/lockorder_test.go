package lockorder_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/lockorder"
	"repro/tools/pimlint/lintcfg"
)

// TestLockorder covers the single-package rules: direct channel
// operations and Cond.Wait under a held lock, direct and call-mediated
// re-acquisition, transitive blocking through a callee, the released /
// goroutine / default-select negatives, and both halves of the
// escape-hatch contract (justified suppresses, bare is a finding).
func TestLockorder(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.ConcurrencyPackages: {"lockpkg"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "lockpkg"), lockorder.Analyzer, cfg, "lockpkg")
}

// TestLockorderCrossPackage drives the whole-program side through
// RunPackages: an AB/BA cycle whose two edges live in different
// packages, and a lock-held call into another package that blocks.
func TestLockorderCrossPackage(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.ConcurrencyPackages: {"locka", "lockb"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), lockorder.Analyzer, cfg,
		[]string{"locka", "lockb"})
}
