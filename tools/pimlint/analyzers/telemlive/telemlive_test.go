package telemlive_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/telemlive"
	"repro/tools/pimlint/lintcfg"
)

func TestTelemlive(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.TelemetryPackages: {"telem"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), telemlive.Analyzer, cfg,
		[]string{"telem", "consumer"})
}

// TestTelemliveNoConsumer analyzes the telemetry package alone: every
// field is unwired, but without a consumer package in the run the
// analyzer must not issue verdicts.
func TestTelemliveNoConsumer(t *testing.T) {
	cfg := lintcfg.Config{lintcfg.TelemetryPackages: {"telemsolo"}}
	analysistest.RunPackages(t, filepath.Join("testdata", "src"), telemlive.Analyzer, cfg,
		[]string{"telemsolo"})
}
