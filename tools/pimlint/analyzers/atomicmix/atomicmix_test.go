package atomicmix_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/atomicmix"
)

// TestAtomicmix covers the single-package rules: plain loads and
// stores of a field also touched through sync/atomic are flagged,
// init-time writes are excused, atomic.*-typed fields may be used as
// method receivers but not copied. There is deliberately no escape
// hatch to test: a racing plain access has no sound variant.
func TestAtomicmix(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "atompkg"), atomicmix.Analyzer, nil, "atompkg")
}

// TestAtomicmixCrossPackage splits the mix across packages — the
// atomic access in the declaring package, the plain one in a consumer —
// which is the case the whole-program End phase exists for.
func TestAtomicmixCrossPackage(t *testing.T) {
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), atomicmix.Analyzer, nil,
		[]string{"atoma", "atomb"})
}
