package lintcfg

import "testing"

func TestDeterministicMatching(t *testing.T) {
	cfg := Config{DeterministicPackages: {"repro/internal/sim", "repro/internal/noc/..."}}
	for path, want := range map[string]bool{
		"repro/internal/sim":        true,
		"repro/internal/simulator":  false, // exact entries do not prefix-match
		"repro/internal/noc":        true,
		"repro/internal/noc/router": true,  // "/..." covers subpackages
		"repro/internal/nocturnal":  false, // but not sibling names
		"repro/internal/dram":       false,
	} {
		if got := cfg.Covers(DeterministicPackages, path); got != want {
			t.Errorf("Covers(DeterministicPackages, %q) = %v, want %v", path, got, want)
		}
	}
}

// TestConcurrencyPackageMatching: a path is matched against the list
// under the asked key only.
func TestConcurrencyPackageMatching(t *testing.T) {
	cfg := Config{
		ConcurrencyPackages: {"repro/internal/serve/...", "repro/internal/journal"},
		LifecyclePackages:   {"repro/internal/sim"},
	}
	for path, want := range map[string]bool{
		"repro/internal/serve":         true,
		"repro/internal/serve/store":   true, // "/..." covers subpackages
		"repro/internal/journal":       true,
		"repro/internal/journalreader": false, // exact entries do not prefix-match
		"repro/internal/sim":           false, // listed under another key
	} {
		if got := cfg.Covers(ConcurrencyPackages, path); got != want {
			t.Errorf("Covers(ConcurrencyPackages, %q) = %v, want %v", path, got, want)
		}
	}
}

func TestNilHandleAndExempt(t *testing.T) {
	cfg := Config{
		NilHandleTypes: {"repro/internal/telemetry.Counter"},
		CycleExempt:    {"DRAMRetryCycles"},
	}
	if !cfg.Has(NilHandleTypes, "repro/internal/telemetry.Counter") {
		t.Error("registered handle type not matched")
	}
	if cfg.Has(NilHandleTypes, "repro/internal/telemetry.Gauge") || cfg.Has(NilHandleTypes, "other/pkg.Counter") {
		t.Error("unregistered type matched")
	}
	if !cfg.Has(CycleExempt, "DRAMRetryCycles") || cfg.Has(CycleExempt, "gpuCycle") {
		t.Error("cycle exemption mismatch")
	}
	if cfg.Has(CycleExempt, "repro/internal/telemetry.Counter") {
		t.Error("entry matched under the wrong key")
	}
}

// TestDataflowKeys covers how qualified entries are taken apart: the
// package a root, sink or handle type lives in (what decides whether an
// unresolved entry is a finding or a partial run), and the short
// display name diagnostics use.
func TestDataflowKeys(t *testing.T) {
	for entry, want := range map[string]string{
		"(*repro/internal/journal.Appender).Append": "repro/internal/journal",
		"(repro/internal/serve.Canonical).Digest":   "repro/internal/serve",
		"repro/internal/serve/loadgen.Run":          "repro/internal/serve/loadgen",
		"repro/internal/telemetry.Counter":          "repro/internal/telemetry",
		"Memory.BusWidthB":                          "Memory", // bare names have no package: no path can equal this
	} {
		if got := PackageOf(entry); got != want {
			t.Errorf("PackageOf(%q) = %q, want %q", entry, got, want)
		}
	}
	for full, want := range map[string]string{
		"(*repro/internal/journal.Appender).Append": "(*journal.Appender).Append",
		"repro/internal/telemetry.HashConfig":       "telemetry.HashConfig",
		"repro/internal/serve/store.Store.mu":       "store.Store.mu",
		"lockpkg.T.mu":                              "lockpkg.T.mu",
	} {
		if got := Short(full); got != want {
			t.Errorf("Short(%q) = %q, want %q", full, got, want)
		}
	}
}

// TestDefaultHasDataflowEntries pins the analyzers' live coverage: the
// digest and journal sinks, the daemons, and the durability core must
// stay configured or the analyzers silently stop checking them. Every
// key must also be present, or its analyzer checks nothing.
func TestDefaultHasDataflowEntries(t *testing.T) {
	cfg := Default()
	if !cfg.Covers(DetflowPackages, "repro/internal/experiments") || !cfg.Covers(DetflowPackages, "repro/cmd/pimserve") {
		t.Error("default detflow_packages lost campaign/daemon coverage")
	}
	if !cfg.Has(DetflowSinks, "(repro/internal/serve.Canonical).Digest") {
		t.Error("default detflow_sinks lost the request digest")
	}
	if !cfg.Covers(LifecyclePackages, "repro/internal/serve/loadgen") {
		t.Error("default lifecycle_packages lost the load generator")
	}
	if !cfg.Covers(DurabilityPackages, "repro/internal/journal") || !cfg.Covers(DurabilityPackages, "repro/internal/serve/store") {
		t.Error("default durability_packages lost the persistence core")
	}
	for _, key := range []Key{
		DeterministicPackages, NilHandleTypes, CycleExempt, HotPathRoots, HotPathPackages,
		ConfigPackages, ConfigExempt, ConcurrencyPackages, WorkerRoots,
		DetflowPackages, DetflowSinks, LifecyclePackages, DurabilityPackages,
	} {
		if len(cfg[key]) == 0 {
			t.Errorf("Default() has no entries under %s", key)
		}
	}
}
