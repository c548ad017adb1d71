// Package nextevent_test is the suite of the NextEvent half of the
// cyclesafe analyzer. The nextevent analyzer was folded into cyclesafe
// (a NextEvent result is a cycle value); its testdata and tests stay
// here so their history and identifiers do.
package nextevent_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/cyclesafe"
	"repro/tools/pimlint/lintcfg"
)

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

// TestNextEventScope: outside the deterministic set the analyzer stays
// silent even on off-contract signatures.
func TestNextEventScope(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DeterministicPackages: {"nexteventtest"}}
	dir := filepath.Join("..", "detmap", "testdata", "src", "scoped")
	analysistest.Run(t, dir, cyclesafe.Analyzer, cfg, "scoped")
}
