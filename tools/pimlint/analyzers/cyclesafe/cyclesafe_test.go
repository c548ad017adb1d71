package cyclesafe_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/cyclesafe"
	"repro/tools/pimlint/lintcfg"
)

func TestCyclesafe(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.DeterministicPackages: {"cyclesafetest"},
		lintcfg.CycleExempt:           {"WarmupCycles"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "cyclesafetest"), cyclesafe.Analyzer, cfg, "cyclesafetest")
}

// TestCyclesafeScope: outside the deterministic set the analyzer stays
// silent even on narrow cycle declarations.
func TestCyclesafeScope(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"cyclesafetest"}}
	dir := filepath.Join("..", "detmap", "testdata", "src", "scoped")
	analysistest.Run(t, dir, cyclesafe.Analyzer, cfg, "scoped")
}

// TestNextEvent isolates the NextEvent vocabulary: `now` is exempted so
// the name-based half of cyclesafe stays quiet on the parameters the
// fodder declares and only the signature and NextEvent-conversion
// findings remain.
func TestNextEvent(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.DeterministicPackages: {"nexteventtest"},
		lintcfg.CycleExempt:           {"now"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "nexteventtest"), cyclesafe.Analyzer, cfg, "nexteventtest")
}

// TestCyclesafeStaleExempt: an exempted name no declaration in the
// loaded deterministic packages carries is a finding.
func TestCyclesafeStaleExempt(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.DeterministicPackages: {"staleexempt"},
		lintcfg.CycleExempt:           {"WarmupCycles"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "staleexempt"), cyclesafe.Analyzer, cfg, "staleexempt")
}
