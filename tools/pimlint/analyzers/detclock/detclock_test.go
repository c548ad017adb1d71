package detclock_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/detclock"
	"repro/tools/pimlint/lintcfg"
)

func TestDetclock(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"detclocktest"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "detclocktest"), detclock.Analyzer, cfg, "detclocktest")
}

// TestDetclockScope analyzes an expectation-free package under an
// import path outside the deterministic set: the analyzer must bail
// before reporting anything.
func TestDetclockScope(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"detclocktest"}}
	dir := filepath.Join("..", "detmap", "testdata", "src", "scoped")
	analysistest.Run(t, dir, detclock.Analyzer, cfg, "scoped")
}
