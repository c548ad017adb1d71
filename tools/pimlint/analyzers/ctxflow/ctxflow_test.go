package ctxflow_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/ctxflow"
	"repro/tools/pimlint/lintcfg"
)

// TestCtxflow covers the per-function rules from one root: bare sends
// and receives flagged, a select without a cancellation arm flagged,
// Done()/struct{}-channel/default arms and range-over-channel accepted,
// goroutine bodies checked as part of the launcher, functions not
// reachable from the root ignored, and the escape hatch (justified
// suppresses, bare is a finding).
func TestCtxflow(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.ConcurrencyPackages: {"ctxpkg"},
		lintcfg.WorkerRoots:         {"ctxpkg.Worker"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "ctxpkg"), ctxflow.Analyzer, cfg, "ctxpkg")
}

// TestCtxflowCrossPackage roots the walk in one package and expects
// the finding in another: reachability is whole-program.
func TestCtxflowCrossPackage(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.ConcurrencyPackages: {"ctxroot", "ctxdep"},
		lintcfg.WorkerRoots:         {"ctxroot.Run"},
	}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), ctxflow.Analyzer, cfg,
		[]string{"ctxdep", "ctxroot"})
}

// TestCtxflowStaleRoot: a worker root that resolves to nothing in a
// loaded package is a finding, not an analyzer that quietly checks
// nothing.
func TestCtxflowStaleRoot(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.ConcurrencyPackages: {"staleroot"},
		lintcfg.WorkerRoots:         {"staleroot.Serve"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "staleroot"), ctxflow.Analyzer, cfg, "staleroot")
}
