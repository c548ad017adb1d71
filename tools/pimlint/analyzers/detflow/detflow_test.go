package detflow_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/detflow"
	"repro/tools/pimlint/lintcfg"
)

func singleCfg() lintcfg.Config {
	return lintcfg.Config{
		lintcfg.DetflowPackages: {"detflowtest"},
		lintcfg.DetflowSinks:    {"detflowtest.Digest", "detflowtest.Record"},
	}
}

func TestDetflow(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "detflowtest"), detflow.Analyzer, singleCfg(), "detflowtest")
}

func TestDetflowCrossPackage(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.DetflowPackages: {"taintsrc", "taintsink"},
		lintcfg.DetflowSinks:    {"taintsink.Emit"},
	}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), detflow.Analyzer, cfg, []string{"taintsrc", "taintsink"})
}

// TestDetflowStaleSink: a sink that resolves to nothing in a loaded
// package is a finding.
func TestDetflowStaleSink(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.DetflowPackages: {"stalesink"},
		lintcfg.DetflowSinks:    {"stalesink.Emit"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "stalesink"), detflow.Analyzer, cfg, "stalesink")
}
