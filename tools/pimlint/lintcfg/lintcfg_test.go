package lintcfg

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	cfg, err := Parse(`
# comment
deterministic_packages:
  - repro/internal/sim
  - "repro/internal/dram"   # quoted entries are unwrapped
nilhandle_types:
  - repro/internal/telemetry.Counter
cyclesafe_exempt:
  - DRAMRetryCycles
concurrency_packages:
  - repro/internal/serve
  - repro/internal/journal
worker_roots:
  - "(*repro/internal/serve.Server).worker"   # FullNames stay quoted
detflow_packages:
  - repro/internal/experiments
detflow_sinks:
  - "(repro/internal/serve.Canonical).Digest"
lifecycle_packages:
  - repro/internal/serve/...
durability_packages:
  - repro/internal/journal
`)
	if err != nil {
		t.Fatal(err)
	}
	want := &Config{
		DeterministicPackages: []string{"repro/internal/sim", "repro/internal/dram"},
		NilHandleTypes:        []string{"repro/internal/telemetry.Counter"},
		CycleExempt:           []string{"DRAMRetryCycles"},
		ConcurrencyPackages:   []string{"repro/internal/serve", "repro/internal/journal"},
		WorkerRoots:           []string{"(*repro/internal/serve.Server).worker"},
		DetflowPackages:       []string{"repro/internal/experiments"},
		DetflowSinks:          []string{"(repro/internal/serve.Canonical).Digest"},
		LifecyclePackages:     []string{"repro/internal/serve/..."},
		DurabilityPackages:    []string{"repro/internal/journal"},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parse:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"unknown key", "typo_key:\n  - x\n"},
		{"item outside key", "- stray\n"},
		{"scalar value", "deterministic_packages: inline\n"},
		{"empty item", "cyclesafe_exempt:\n  - \"\"\n"},
		{"bare text", "not yaml at all\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: Parse accepted %q", c.name, c.text)
		}
	}
}

func TestDeterministicMatching(t *testing.T) {
	cfg := &Config{DeterministicPackages: []string{"repro/internal/sim", "repro/internal/noc/..."}}
	for path, want := range map[string]bool{
		"repro/internal/sim":        true,
		"repro/internal/simulator":  false, // exact entries do not prefix-match
		"repro/internal/noc":        true,
		"repro/internal/noc/router": true,  // "/..." covers subpackages
		"repro/internal/nocturnal":  false, // but not sibling names
		"repro/internal/dram":       false,
	} {
		if got := cfg.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestConcurrencyPackageMatching(t *testing.T) {
	cfg := &Config{ConcurrencyPackages: []string{"repro/internal/serve/...", "repro/internal/journal"}}
	for path, want := range map[string]bool{
		"repro/internal/serve":         true,
		"repro/internal/serve/store":   true, // "/..." covers subpackages
		"repro/internal/journal":       true,
		"repro/internal/journalreader": false, // exact entries do not prefix-match
		"repro/internal/sim":           false,
	} {
		if got := cfg.ConcurrencyPackage(path); got != want {
			t.Errorf("ConcurrencyPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestNilHandleAndExempt(t *testing.T) {
	cfg := &Config{
		NilHandleTypes: []string{"repro/internal/telemetry.Counter"},
		CycleExempt:    []string{"DRAMRetryCycles"},
	}
	if !cfg.NilHandle("repro/internal/telemetry", "Counter") {
		t.Error("registered handle type not matched")
	}
	if cfg.NilHandle("repro/internal/telemetry", "Gauge") {
		t.Error("unregistered type matched")
	}
	if cfg.NilHandle("other/pkg", "Counter") {
		t.Error("type name matched across packages")
	}
	if !cfg.CycleExempted("DRAMRetryCycles") || cfg.CycleExempted("gpuCycle") {
		t.Error("cycle exemption mismatch")
	}
}

// TestDataflowKeys covers the PR 10 keys: package matching for the
// three new analyzers and sink lookup with short-name display.
func TestDataflowKeys(t *testing.T) {
	cfg := &Config{
		DetflowPackages:    []string{"repro/internal/experiments", "repro/cmd/..."},
		DetflowSinks:       []string{"(*repro/internal/journal.Appender).Append", "repro/internal/telemetry.HashConfig"},
		LifecyclePackages:  []string{"repro/internal/serve/..."},
		DurabilityPackages: []string{"repro/internal/journal"},
	}
	for path, want := range map[string]bool{
		"repro/internal/experiments": true,
		"repro/cmd/pim":              true,  // "/..." covers subpackages
		"repro/internal/sim":         false, // not listed
	} {
		if got := cfg.DetflowPackage(path); got != want {
			t.Errorf("DetflowPackage(%q) = %v, want %v", path, got, want)
		}
	}
	if !cfg.LifecyclePackage("repro/internal/serve/store") || cfg.LifecyclePackage("repro/internal/journal") {
		t.Error("lifecycle package matching mismatch")
	}
	if !cfg.DurabilityPackage("repro/internal/journal") || cfg.DurabilityPackage("repro/internal/serve") {
		t.Error("durability package matching mismatch")
	}

	// Sinks match by FullName and report a compressed display name.
	name, ok := cfg.DetflowSink("(*repro/internal/journal.Appender).Append")
	if !ok || name != "(*journal.Appender).Append" {
		t.Errorf("DetflowSink(Append) = %q, %v", name, ok)
	}
	name, ok = cfg.DetflowSink("repro/internal/telemetry.HashConfig")
	if !ok || name != "telemetry.HashConfig" {
		t.Errorf("DetflowSink(HashConfig) = %q, %v", name, ok)
	}
	if _, ok := cfg.DetflowSink("repro/internal/telemetry.WriteJSONL"); ok {
		t.Error("unlisted sink matched")
	}
}

// TestDefaultHasDataflowEntries pins the analyzers' live coverage: the
// digest and journal sinks, the daemons, and the durability core must
// stay configured or the new analyzers silently stop checking them.
func TestDefaultHasDataflowEntries(t *testing.T) {
	cfg := Default()
	if !cfg.DetflowPackage("repro/internal/experiments") || !cfg.DetflowPackage("repro/cmd/pimserve") {
		t.Error("default detflow_packages lost campaign/daemon coverage")
	}
	if _, ok := cfg.DetflowSink("(repro/internal/serve.Canonical).Digest"); !ok {
		t.Error("default detflow_sinks lost the request digest")
	}
	if !cfg.LifecyclePackage("repro/internal/serve/loadgen") {
		t.Error("default lifecycle_packages lost the load generator")
	}
	if !cfg.DurabilityPackage("repro/internal/journal") || !cfg.DurabilityPackage("repro/internal/serve/store") {
		t.Error("default durability_packages lost the persistence core")
	}
}

// TestFind walks upward to the repo root's pimlint.yaml; from a temp
// dir outside the repo it falls back to the compiled-in defaults, and
// both must agree (the file and Default() are documented as mirrors).
func TestFind(t *testing.T) {
	fromRepo, err := Find(".")
	if err != nil {
		t.Fatal(err)
	}
	fromNowhere, err := Find(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromNowhere, Default()) {
		t.Fatal("Find outside the repo should return Default()")
	}
	if !reflect.DeepEqual(fromRepo, Default()) {
		t.Fatalf("pimlint.yaml has drifted from lintcfg.Default():\n file %+v\n code %+v", fromRepo, Default())
	}
}

// TestRepoConfigMatchesDefault parses the repository's pimlint.yaml
// directly and requires it to be byte-for-byte equivalent to the
// compiled-in defaults: the two are documented as mirrors, and a drift
// means `go vet -vettool` runs (which may not see the file) and
// `make lint` runs enforce different rules.
func TestRepoConfigMatchesDefault(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", FileName))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, Default()) {
		t.Fatalf("pimlint.yaml has drifted from lintcfg.Default():\n file %+v\n code %+v", parsed, Default())
	}
}

func TestFindRejectsBrokenFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("bogus_key:\n  - x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Find(dir); err == nil {
		t.Fatal("broken config silently accepted")
	}
}
