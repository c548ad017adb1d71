package detmap_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/detmap"
	"repro/tools/pimlint/lintcfg"
)

func TestDetmap(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"detmaptest"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "detmaptest"), detmap.Analyzer, cfg, "detmaptest")
}

// TestDetmapScope runs the analyzer over a package full of map ranges
// whose import path is outside the deterministic set: zero diagnostics
// expected (the testdata file carries no want comments).
func TestDetmapScope(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"detmaptest"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "scoped"), detmap.Analyzer, cfg, "scoped")
}

// TestDetmapPrefixPattern checks the "/..." pattern form reaches
// subpackages.
func TestDetmapPrefixPattern(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"detmaptest/..."}}
	analysistest.Run(t, filepath.Join("testdata", "src", "detmaptest"), detmap.Analyzer, cfg, "detmaptest/inner")
}
