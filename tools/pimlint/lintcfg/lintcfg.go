// Package lintcfg loads the pimlint configuration: which packages are
// held to the determinism rules, which types are nil-safe handles, and
// which names the cycle-width check exempts.
//
// The configuration lives in pimlint.yaml at the repository root. Only
// a small YAML subset is needed (string scalars and string lists), so
// the file is parsed with a dependency-free reader rather than a full
// YAML library; see Parse for the accepted grammar. Compiled-in
// defaults mirror the repository's own pimlint.yaml, so the analyzers
// behave identically when the file is absent (e.g. under `go vet
// -vettool` invoked from another directory).
package lintcfg

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Config is the parsed pimlint configuration.
type Config struct {
	// DeterministicPackages lists the import paths (exact or trailing
	// "/..." prefix patterns) whose code must be schedule- and
	// host-independent: no map-order dependence, no wall clock, no
	// global randomness, no environment reads.
	DeterministicPackages []string

	// NilHandleTypes lists "importpath.TypeName" entries whose exported
	// pointer-receiver methods must begin with a nil-receiver guard (the
	// simulator's disabled-handle convention).
	NilHandleTypes []string

	// CycleExempt lists identifier names the cyclesafe analyzer skips:
	// bounded durations that are counted in cycles but are not cycle
	// timestamps or accumulating counters (e.g. a config field holding
	// "extra cycles per retry").
	CycleExempt []string

	// HotPathRoots lists the entry points of the per-cycle hot path in
	// types.Func FullName form, e.g.
	// "(*repro/internal/memctrl.Controller).Tick". The hotalloc
	// analyzer computes the functions reachable from these roots.
	HotPathRoots []string

	// HotPathPackages lists the import paths whose functions, when
	// reachable from a hot-path root, must not contain
	// allocation-causing constructs (composite literals that escape,
	// make/new, fmt calls, string concatenation, closures, interface
	// boxing, map literals).
	HotPathPackages []string

	// TelemetryPackages lists the packages declaring the metric handle
	// types (Counter, Gauge, Histogram) the telemlive analyzer tracks
	// for registration/write liveness.
	TelemetryPackages []string

	// ConfigPackages lists the packages declaring the simulator's
	// configuration structs; cfglive requires every exported field of
	// those structs to be read by code outside the declaring package.
	ConfigPackages []string

	// ConfigExempt lists "TypeName.Field" entries cfglive excuses:
	// knobs that are intentionally declared ahead of their consumer or
	// consumed only by generated artifacts.
	ConfigExempt []string

	// ConcurrencyPackages lists the import paths held to the
	// concurrency disciplines (lockorder, goorphan): the service layer,
	// its persistence, and the campaign harness, where mutex-guarded
	// types, worker pools and fsync'd journals interact.
	ConcurrencyPackages []string

	// WorkerRoots lists the service entry points — HTTP handlers and
	// worker-loop bodies — in types.Func FullName form. ctxflow
	// requires every blocking channel operation reachable from them to
	// be cancellable (a ctx.Done()/close-signal select arm).
	WorkerRoots []string

	// DetflowPackages lists the import paths the detflow taint analyzer
	// covers: packages whose values may flow into result digests,
	// journal records or figure-feeding telemetry, so nondeterminism
	// (wall clock, unseeded rand, map order, scheduler reads) must not
	// reach the DetflowSinks without an audited //pimlint:nondet.
	DetflowPackages []string

	// DetflowSinks lists the determinism-critical sinks in types.Func
	// FullName form: digest inputs, result encoders, journal/store
	// writes, and the telemetry counters that feed figure outputs.
	DetflowSinks []string

	// LifecyclePackages lists the import paths (service and campaign
	// code) where every os.File / time.Timer / time.Ticker /
	// http.Response.Body / context.CancelFunc must be released on all
	// paths or carry //pimlint:lifecycle.
	LifecyclePackages []string

	// DurabilityPackages lists the import paths on the durability
	// paths: errsink forbids discarding errors from fsync / Close /
	// Write / journal append there outside //pimlint:besteffort sites.
	DurabilityPackages []string
}

// Default returns the compiled-in configuration, kept in sync with the
// repository's pimlint.yaml.
func Default() *Config {
	return &Config{
		DeterministicPackages: []string{
			"repro/internal/sim",
			"repro/internal/memctrl",
			"repro/internal/dram",
			"repro/internal/noc",
			"repro/internal/sched",
			"repro/internal/gpu",
			"repro/internal/pim",
			"repro/internal/faults",
		},
		NilHandleTypes: []string{
			"repro/internal/telemetry.Counter",
			"repro/internal/telemetry.Gauge",
			"repro/internal/telemetry.Histogram",
			"repro/internal/telemetry.Registry",
			"repro/internal/telemetry.Collector",
			"repro/internal/telemetry.Sampler",
			"repro/internal/telemetry.Manifest",
			"repro/internal/faults.Injector",
			"repro/internal/experiments.Journal",
			"repro/internal/request.Pool",
		},
		CycleExempt: []string{
			"DRAMRetryCycles",
			"NoCStallCycles",
		},
		HotPathRoots: []string{
			"(*repro/internal/memctrl.Controller).Tick",
			"(*repro/internal/noc.Network).Tick",
			"(*repro/internal/sim.System).advance",
			"(*repro/internal/gpu.Kernel).Tick",
		},
		HotPathPackages: []string{
			"repro/internal/sim",
			"repro/internal/memctrl",
			"repro/internal/dram",
			"repro/internal/noc",
			"repro/internal/sched",
			"repro/internal/core",
			"repro/internal/gpu",
			"repro/internal/workload",
			"repro/internal/cache",
			"repro/internal/request",
		},
		TelemetryPackages: []string{
			"repro/internal/telemetry",
		},
		ConfigPackages: []string{
			"repro/internal/config",
		},
		// Knobs consumed only through derived accessors inside the
		// config package (AccessBytes, RFPerBank, SliceBytes); cfglive
		// counts only reads outside the declaring package.
		ConfigExempt: []string{
			"Memory.BusWidthB",
			"PIM.RFSize",
			"Cache.TotalBytes",
		},
		ConcurrencyPackages: []string{
			"repro/internal/serve",
			"repro/internal/serve/store",
			"repro/internal/serve/loadgen",
			"repro/internal/journal",
			"repro/internal/experiments",
			"repro/internal/telemetry",
			"repro/cmd/pimserve",
		},
		WorkerRoots: []string{
			"(*repro/internal/serve.Server).handleSimulate",
			"(*repro/internal/serve.Server).handleJob",
			"(*repro/internal/serve.Server).handleStream",
			"(*repro/internal/serve.Server).handleCancel",
			"(*repro/internal/serve.Server).worker",
			"(*repro/internal/serve.Server).warmLoad",
			"repro/internal/serve/loadgen.Run",
			"(*repro/internal/experiments.Runner).forEachPairCtx",
		},
		DetflowPackages: []string{
			"repro/internal/sim",
			"repro/internal/memctrl",
			"repro/internal/dram",
			"repro/internal/noc",
			"repro/internal/sched",
			"repro/internal/gpu",
			"repro/internal/pim",
			"repro/internal/faults",
			"repro/internal/config",
			"repro/internal/serve",
			"repro/internal/serve/store",
			"repro/internal/serve/loadgen",
			"repro/internal/journal",
			"repro/internal/experiments",
			"repro/internal/telemetry",
			"repro/cmd/pim",
			"repro/cmd/pimserve",
		},
		DetflowSinks: []string{
			"(repro/internal/serve.Canonical).Digest",
			"repro/internal/telemetry.HashConfig",
			"repro/internal/telemetry.WriteJSONL",
			"repro/internal/journal.WriteFileAtomic",
			"repro/internal/journal.Rewrite",
			"(*repro/internal/journal.Appender).Append",
			"(*repro/internal/serve/store.Store).Put",
			"(*repro/internal/telemetry.Counter).Add",
			"(*repro/internal/telemetry.Gauge).Set",
			"(*repro/internal/telemetry.Gauge).Add",
			"(*repro/internal/telemetry.Histogram).Observe",
		},
		LifecyclePackages: []string{
			"repro/internal/serve",
			"repro/internal/serve/store",
			"repro/internal/serve/loadgen",
			"repro/internal/journal",
			"repro/internal/experiments",
			"repro/internal/telemetry",
			"repro/cmd/pimserve",
			"repro/cmd/pim",
			"repro/cmd/pimload",
		},
		DurabilityPackages: []string{
			"repro/internal/journal",
			"repro/internal/serve/store",
			"repro/internal/serve",
			"repro/internal/experiments",
			"repro/internal/telemetry",
		},
	}
}

// FileName is the configuration file searched for by Find.
const FileName = "pimlint.yaml"

// Find walks from dir toward the filesystem root looking for
// pimlint.yaml and returns the parsed file, or Default when no file is
// found. A file that exists but does not parse is an error: a broken
// config must not silently weaken the lint.
func Find(dir string) (*Config, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		path := filepath.Join(dir, FileName)
		if data, err := os.ReadFile(path); err == nil {
			cfg, err := Parse(string(data))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return cfg, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return Default(), nil
		}
		dir = parent
	}
}

// Parse reads the pimlint.yaml grammar: top-level "key:" headers each
// followed by "- item" list entries. Blank lines and "#" comments are
// ignored. Unknown keys are errors so typos fail loudly.
func Parse(text string) (*Config, error) {
	cfg := &Config{}
	var cur *[]string
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if item, ok := strings.CutPrefix(trimmed, "- "); ok {
			if cur == nil {
				return nil, fmt.Errorf("line %d: list item outside a key", ln+1)
			}
			item = strings.Trim(strings.TrimSpace(item), `"'`)
			if item == "" {
				return nil, fmt.Errorf("line %d: empty list item", ln+1)
			}
			*cur = append(*cur, item)
			continue
		}
		key, rest, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: expected \"key:\" or \"- item\", got %q", ln+1, trimmed)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("line %d: key %q: only list values are supported", ln+1, key)
		}
		switch strings.TrimSpace(key) {
		case "deterministic_packages":
			cur = &cfg.DeterministicPackages
		case "nilhandle_types":
			cur = &cfg.NilHandleTypes
		case "cyclesafe_exempt":
			cur = &cfg.CycleExempt
		case "hotpath_roots":
			cur = &cfg.HotPathRoots
		case "hotpath_packages":
			cur = &cfg.HotPathPackages
		case "telemetry_packages":
			cur = &cfg.TelemetryPackages
		case "config_packages":
			cur = &cfg.ConfigPackages
		case "config_exempt":
			cur = &cfg.ConfigExempt
		case "concurrency_packages":
			cur = &cfg.ConcurrencyPackages
		case "worker_roots":
			cur = &cfg.WorkerRoots
		case "detflow_packages":
			cur = &cfg.DetflowPackages
		case "detflow_sinks":
			cur = &cfg.DetflowSinks
		case "lifecycle_packages":
			cur = &cfg.LifecyclePackages
		case "durability_packages":
			cur = &cfg.DurabilityPackages
		default:
			return nil, fmt.Errorf("line %d: unknown key %q", ln+1, key)
		}
	}
	return cfg, nil
}

// Deterministic reports whether the package at importPath is covered by
// the determinism rules. An entry matches exactly or, when it ends in
// "/...", as a path prefix.
func (c *Config) Deterministic(importPath string) bool {
	return containsPath(c.DeterministicPackages, importPath)
}

// NilHandle reports whether pkgPath.typeName is a registered nil-safe
// handle type.
func (c *Config) NilHandle(pkgPath, typeName string) bool {
	want := pkgPath + "." + typeName
	for _, t := range c.NilHandleTypes {
		if t == want {
			return true
		}
	}
	return false
}

// CycleExempted reports whether the named identifier is excused from
// the cyclesafe width rule.
func (c *Config) CycleExempted(name string) bool {
	for _, n := range c.CycleExempt {
		if n == name {
			return true
		}
	}
	return false
}

// HotPackage reports whether the package at importPath is held to the
// hot-path allocation rules when reachable from a root.
func (c *Config) HotPackage(importPath string) bool {
	return containsPath(c.HotPathPackages, importPath)
}

// TelemetryPackage reports whether importPath declares the tracked
// metric handle types.
func (c *Config) TelemetryPackage(importPath string) bool {
	return containsPath(c.TelemetryPackages, importPath)
}

// ConfigPackage reports whether importPath declares configuration
// structs subject to the cfglive field-liveness rule.
func (c *Config) ConfigPackage(importPath string) bool {
	return containsPath(c.ConfigPackages, importPath)
}

// ConfigExempted reports whether TypeName.Field is excused from
// cfglive.
func (c *Config) ConfigExempted(typeName, field string) bool {
	want := typeName + "." + field
	for _, e := range c.ConfigExempt {
		if e == want {
			return true
		}
	}
	return false
}

// ConcurrencyPackage reports whether the package at importPath is held
// to the concurrency disciplines (lockorder, goorphan).
func (c *Config) ConcurrencyPackage(importPath string) bool {
	return containsPath(c.ConcurrencyPackages, importPath)
}

// DetflowPackage reports whether the package at importPath is covered
// by the detflow taint analysis.
func (c *Config) DetflowPackage(importPath string) bool {
	return containsPath(c.DetflowPackages, importPath)
}

// DetflowSink reports whether the function with the given types.Func
// FullName is a configured determinism sink, returning a short display
// name (the FullName with the package path's directory prefix
// dropped).
func (c *Config) DetflowSink(fullName string) (string, bool) {
	for _, s := range c.DetflowSinks {
		if s == fullName {
			return shortFuncName(s), true
		}
	}
	return "", false
}

// LifecyclePackage reports whether the package at importPath is held
// to the resource-lifecycle rules.
func (c *Config) LifecyclePackage(importPath string) bool {
	return containsPath(c.LifecyclePackages, importPath)
}

// DurabilityPackage reports whether the package at importPath is on a
// durability path subject to the errsink rules.
func (c *Config) DurabilityPackage(importPath string) bool {
	return containsPath(c.DurabilityPackages, importPath)
}

// shortFuncName compresses a types.Func FullName for diagnostics:
// "(*repro/internal/journal.Appender).Append" -> "(*journal.Appender).Append".
func shortFuncName(full string) string {
	out := full
	for {
		i := strings.LastIndex(out, "/")
		if i < 0 {
			return out
		}
		j := strings.LastIndexAny(out[:i], "(* \t")
		out = out[:j+1] + out[i+1:]
	}
}

// containsPath matches importPath against exact entries or trailing
// "/..." prefix patterns, the same grammar Deterministic uses.
func containsPath(list []string, importPath string) bool {
	for _, p := range list {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if importPath == prefix || strings.HasPrefix(importPath, prefix+"/") {
				return true
			}
		} else if importPath == p {
			return true
		}
	}
	return false
}
