package cfglive_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/cfglive"
	"repro/tools/pimlint/lintcfg"
)

func TestCfglive(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.ConfigPackages: {"simcfg"},
		lintcfg.ConfigExempt:   {"Sim.Waived"},
	}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), cfglive.Analyzer, cfg,
		[]string{"simcfg", "app"})
}

// TestCfgliveNoConsumer analyzes the config package alone: nothing
// reads any field, but without a consumer package in the run the
// analyzer must not issue verdicts.
func TestCfgliveNoConsumer(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.ConfigPackages: {"cfgsolo"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), cfglive.Analyzer, cfg,
		[]string{"cfgsolo"})
}

// TestCfgliveStaleExempt: an exemption naming a field no loaded config
// package declares is a finding, with or without consumers in the run.
func TestCfgliveStaleExempt(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.ConfigPackages: {"stalecfg"},
		lintcfg.ConfigExempt:   {"Sim.Legacy"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "stalecfg"), cfglive.Analyzer, cfg, "stalecfg")
}
