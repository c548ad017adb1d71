package nilhandle_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/nilhandle"
	"repro/tools/pimlint/lintcfg"
)

func TestNilhandle(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.NilHandleTypes: {"nilhandletest.Handle"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "nilhandletest"), nilhandle.Analyzer, cfg, "nilhandletest")
}

// TestNilhandleUnregistered runs with an empty registry: nothing may be
// flagged, so every want comment would go unmet — hence the analyzer is
// pointed at a registry entry for a different package path and the
// expectation-free scoped package is reused.
func TestNilhandleUnregistered(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.NilHandleTypes: {"elsewhere.Handle"}}
	dir := filepath.Join("..", "detmap", "testdata", "src", "scoped")
	analysistest.Run(t, dir, nilhandle.Analyzer, cfg, "scoped")
}

// TestNilhandleStaleType: a registered type its (loaded) package does
// not declare is a finding; TestNilhandleUnregistered's entry names a
// package outside the run and stays quiet.
func TestNilhandleStaleType(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.NilHandleTypes: {"staletype.Handle"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "staletype"), nilhandle.Analyzer, cfg, "staletype")
}
