package lifecycle_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/lifecycle"
	"repro/tools/pimlint/lintcfg"
)

func TestLifecycle(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.LifecyclePackages: {"lifecycletest"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "lifecycletest"), lifecycle.Analyzer, cfg, "lifecycletest")
}

func TestLifecycleCrossPackage(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.LifecyclePackages: {"resmaker", "resuser"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), lifecycle.Analyzer, cfg, []string{"resmaker", "resuser"})
}
