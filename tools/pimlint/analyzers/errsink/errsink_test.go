package errsink_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/errsink"
	"repro/tools/pimlint/lintcfg"
)

func TestErrsink(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DurabilityPackages: {"errsinktest"}}
	analysistest.Run(t, filepath.Join("testdata", "src", "errsinktest"), errsink.Analyzer, cfg, "errsinktest")
}

func TestErrsinkCrossPackage(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.DurabilityPackages: {"durwrap", "durcall"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), errsink.Analyzer, cfg, []string{"durwrap", "durcall"})
}
