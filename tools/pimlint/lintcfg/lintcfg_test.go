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
		DurabilityPackages:  {"repro/internal/sim"},
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

// TestHasMatchesExactEntry: Has matches an entry exactly, and only
// under the key it is listed under.
func TestHasMatchesExactEntry(t *testing.T) {
	cfg := Config{
		ConfigExempt: {"PIM.RFSize"},
		CycleExempt:  {"DRAMRetryCycles"},
	}
	if !cfg.Has(ConfigExempt, "PIM.RFSize") {
		t.Error("listed exemption not matched")
	}
	if cfg.Has(ConfigExempt, "PIM.RF") || cfg.Has(ConfigExempt, "Other.RFSize") {
		t.Error("unlisted entry matched")
	}
	if !cfg.Has(CycleExempt, "DRAMRetryCycles") || cfg.Has(CycleExempt, "gpuCycle") {
		t.Error("cycle exemption mismatch")
	}
	if cfg.Has(CycleExempt, "PIM.RFSize") {
		t.Error("entry matched under the wrong key")
	}
}

// TestDataflowKeys covers how qualified entries are taken apart: the
// package a root or type lives in (what decides whether an unresolved
// entry is a finding or a partial run).
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
}

// TestDefaultHasDataflowEntries pins the analyzers' live coverage: the
// load generator and the durability core must stay configured or the
// analyzers silently stop checking them. Every key must also be
// present, or its analyzer checks nothing.
func TestDefaultHasDataflowEntries(t *testing.T) {
	cfg := Default()
	if !cfg.Covers(ConcurrencyPackages, "repro/internal/serve/loadgen") {
		t.Error("default concurrency_packages lost the load generator")
	}
	if !cfg.Covers(DurabilityPackages, "repro/internal/journal") || !cfg.Covers(DurabilityPackages, "repro/internal/serve/store") {
		t.Error("default durability_packages lost the persistence core")
	}
	for _, key := range []Key{
		DeterministicPackages, CycleExempt, HotPathRoots, HotPathPackages,
		ConfigPackages, ConfigExempt, ConcurrencyPackages, WorkerRoots,
		DurabilityPackages,
	} {
		if len(cfg[key]) == 0 {
			t.Errorf("Default() has no entries under %s", key)
		}
	}
}
