package hotalloc_test

import (
	"path/filepath"
	"testing"

	"repro/tools/pimlint/analysis/analysistest"
	"repro/tools/pimlint/analyzers/hotalloc"
	"repro/tools/pimlint/lintcfg"
)

func TestHotalloc(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.HotPathRoots:    {"(*hotpkg.Engine).Tick"},
		lintcfg.HotPathPackages: {"hotpkg"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "hotpkg"), hotalloc.Analyzer, cfg, "hotpkg")
}

// TestHotallocNoRoots points the analyzer at a root that does not exist
// in the analyzed set: the allocating package must produce no findings,
// since nothing is reachable from an unresolved root.
func TestHotallocNoRoots(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.HotPathRoots:    {"(*absent.Engine).Tick"},
		lintcfg.HotPathPackages: {"coldpkg"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "coldpkg"), hotalloc.Analyzer, cfg, "coldpkg")
}

// TestHotallocStaleRoot: a root whose package is loaded but which
// resolves to nothing is a finding, unlike TestHotallocNoRoots' partial
// invocation.
func TestHotallocStaleRoot(t *testing.T) {
	cfg := lintcfg.Config{
		lintcfg.HotPathRoots:    {"(*staleroot.Engine).Step"},
		lintcfg.HotPathPackages: {"staleroot"},
	}
	analysistest.Run(t, filepath.Join("testdata", "src", "staleroot"), hotalloc.Analyzer, cfg, "staleroot")
}
