// Package lintcfg states the pimlint configuration: which packages each
// analyzer holds to which rule, which functions are roots and sinks,
// and which names are audited exemptions.
//
// The configuration is one Go value, Default — there is no file to
// find, parse or keep in sync. Every list is named once, by its Key;
// analyzers look entries up through Covers and Has and name the key in
// their diagnostics. An entry that names something the loaded tree
// does not contain is reported by the analyzer that owns the key (see
// analysis.Pass.Unresolved), so a rename cannot silently switch a
// check off.
package lintcfg

import (
	"slices"
	"strings"
)

// Key names one configuration list. The string form is what
// diagnostics and docs/DETERMINISM.md call the list.
type Key string

const (
	// DeterministicPackages lists the import paths (exact, or a
	// trailing "/..." pattern) whose code must be schedule- and
	// host-independent: same (config, seed, fault schedule) means
	// bit-identical results. detmap, detclock and cyclesafe apply only
	// here, test files included.
	DeterministicPackages Key = "deterministic_packages"

	// NilHandleTypes lists "importpath.TypeName" handle types whose
	// exported pointer-receiver methods must begin with an `if recv ==
	// nil` guard, so a disabled subsystem can stay a nil handle.
	NilHandleTypes Key = "nilhandle_types"

	// CycleExempt lists identifiers cyclesafe skips: bounded durations
	// denominated in cycles, not timestamps or accumulating counters.
	CycleExempt Key = "cyclesafe_exempt"

	// HotPathRoots lists the entry points of the per-cycle hot path in
	// types.Func FullName form; hotalloc flags allocation-causing
	// constructs in the HotPathPackages functions reachable from them
	// (docs/PERFORMANCE.md).
	HotPathRoots Key = "hotpath_roots"

	// HotPathPackages lists the packages held to the allocation rules
	// when reachable from a root.
	HotPathPackages Key = "hotpath_packages"

	// ConfigPackages lists the packages declaring the simulator's
	// configuration structs; cfglive requires every exported field to
	// be read outside the declaring package.
	ConfigPackages Key = "config_packages"

	// ConfigExempt lists the "TypeName.Field" entries cfglive excuses.
	ConfigExempt Key = "config_exempt"

	// ConcurrencyPackages lists the packages held to the concurrency
	// disciplines (lockorder, goorphan, and the reporting scope of
	// ctxflow).
	ConcurrencyPackages Key = "concurrency_packages"

	// WorkerRoots lists the service entry points — HTTP handlers and
	// worker-loop bodies — in types.Func FullName form. Every blocking
	// channel operation ctxflow finds reachable from one must be
	// cancellable.
	WorkerRoots Key = "worker_roots"

	// DetflowPackages lists the packages the detflow taint analysis
	// covers: everything whose values can reach a DetflowSinks entry.
	DetflowPackages Key = "detflow_packages"

	// DetflowSinks lists the determinism-critical sinks in types.Func
	// FullName form. detflow reports any nondeterministic value
	// reaching one — by value flow or inside a struct whose fields
	// carry one — unless the call has an audited //pimlint:nondet.
	DetflowSinks Key = "detflow_sinks"

	// LifecyclePackages lists the service and campaign packages where
	// lifecycle audits every os.File, timer/ticker, response body, net
	// conn/listener and context.CancelFunc.
	LifecyclePackages Key = "lifecycle_packages"

	// DurabilityPackages lists the packages on the durability paths,
	// where errsink forbids discarding errors from fsync / Write /
	// Flush / Encode / Rename / written-file Close.
	DurabilityPackages Key = "durability_packages"
)

// Config maps each Key to its entries. Tests build literals of it;
// the repository's own value is Default.
type Config map[Key][]string

// Default returns the repository's configuration. The comments give
// the reason each list, and each audited entry, is what it is.
func Default() Config {
	return Config{
		DeterministicPackages: {
			"repro/internal/sim",
			"repro/internal/memctrl",
			"repro/internal/dram",
			"repro/internal/noc",
			"repro/internal/sched",
			"repro/internal/gpu",
			"repro/internal/pim",
			"repro/internal/faults",
		},
		NilHandleTypes: {
			"repro/internal/telemetry.Counter",
			"repro/internal/telemetry.Gauge",
			"repro/internal/telemetry.Registry",
			"repro/internal/telemetry.Collector",
			"repro/internal/telemetry.Sampler",
			"repro/internal/telemetry.Manifest",
			"repro/internal/faults.Injector",
			"repro/internal/experiments.Journal",
			"repro/internal/request.Pool",
		},
		// Keep this list short and justified.
		CycleExempt: {
			"DRAMRetryCycles", // faults.Schedule: extra cycles per ECC retry (config value)
			"NoCStallCycles",  // faults.Schedule: stall length per event (config value)
		},
		HotPathRoots: {
			"(*repro/internal/memctrl.Controller).Tick",
			"(*repro/internal/noc.Network).Tick",
			"(*repro/internal/sim.System).advance",
			"(*repro/internal/gpu.Kernel).Tick",
		},
		// The whole simulated cycle, request generation and recycling
		// included. internal/serve (the pimserve daemon) is deliberately
		// absent — cold path by construction: its handlers and workers
		// run once per HTTP request or job, never per simulated cycle,
		// and they allocate freely (JSON encoding, job records, cache
		// entries). Only the simulations it launches enter the audited
		// hot path, through the roots above. internal/journal and
		// internal/serve/store are cold by the same argument: journal
		// appends and crash-recovery replay run per result or per
		// restart — durability there buys fsyncs and allocations on
		// purpose, never inside a simulated cycle.
		HotPathPackages: {
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
			"repro/internal/trace", // Sink implementations, reached through Controller.record
		},
		ConfigPackages: {
			"repro/internal/config",
		},
		// Knobs consumed only inside the config package, through derived
		// accessors or Validate; cfglive counts only reads outside the
		// declaring package, so that indirection looks dead to it.
		ConfigExempt: {
			"Memory.BusWidthB",  // read via Memory.AccessBytes()
			"PIM.RFSize",        // read via PIM.RFPerBank()
			"PIM.FUsPerChannel", // held to one FU per bank pair by Config.Validate
			"Cache.TotalBytes",  // read via Cache.SliceBytes()
		},
		// The pimserve service layer, its persistence, the campaign
		// harness and the metrics registry — every package where
		// mutex-guarded types, worker pools, channels and fsync'd
		// journals interact. The deterministic simulator core is
		// deliberately absent: it is single-goroutine by construction
		// (one run, one tick loop) and its discipline is the
		// determinism suite above.
		ConcurrencyPackages: {
			"repro/internal/serve",
			"repro/internal/serve/store",
			"repro/internal/serve/loadgen",
			"repro/internal/journal",
			"repro/internal/experiments",
			"repro/internal/telemetry",
			"repro/cmd/pimserve",
		},
		WorkerRoots: {
			"(*repro/internal/serve.Server).handleSimulate",
			"(*repro/internal/serve.Server).handleJob",
			"(*repro/internal/serve.Server).handleStream",
			"(*repro/internal/serve.Server).handleCancel",
			"(*repro/internal/serve.Server).worker",
			"(*repro/internal/serve.Server).warmLoad",
			"repro/internal/serve/loadgen.Run",
			"(*repro/internal/experiments.Runner).forEachPairCtx",
		},
		// The deterministic core, the serving/persistence layer, the
		// campaign harness, and the cmd daemons that assemble results.
		DetflowPackages: {
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
		// Config digest inputs, result encoders, journal/store writes,
		// and the telemetry metrics that feed figure outputs.
		DetflowSinks: {
			"(repro/internal/serve.Canonical).Digest",
			"repro/internal/telemetry.HashConfig",
			"repro/internal/telemetry.WriteJSONL",
			"repro/internal/journal.WriteFileAtomic",
			"(*repro/internal/journal.Appender).Append",
			"(*repro/internal/serve/store.Store).Put",
			"(*repro/internal/telemetry.Counter).Add",
			"(*repro/internal/telemetry.Gauge).Set",
			"(*repro/internal/telemetry.Gauge).Add",
		},
		// The simulator core is absent — it opens no resources.
		LifecyclePackages: {
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
		// The journal, the persistent result store, the serving layer
		// that promises persist-before-fulfill, the campaign harness,
		// and the atomic telemetry writers.
		DurabilityPackages: {
			"repro/internal/journal",
			"repro/internal/serve/store",
			"repro/internal/serve",
			"repro/internal/experiments",
			"repro/internal/telemetry",
		},
	}
}

// Has reports whether the list under key names entry exactly.
func (c Config) Has(key Key, entry string) bool {
	return slices.Contains(c[key], entry)
}

// Covers reports whether a package list holds importPath: an entry
// matches exactly or, when it ends in "/...", as a path prefix.
func (c Config) Covers(key Key, importPath string) bool {
	for _, p := range c[key] {
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

// PackageOf returns the import path inside a qualified entry: a
// types.Func FullName ("(*a/b.T).M", "a/b.F") or an "a/b.TypeName".
func PackageOf(entry string) string {
	entry = strings.TrimLeft(entry, "(*")
	entry, _, _ = strings.Cut(entry, ")")
	if i := strings.LastIndex(entry, "."); i >= 0 {
		return entry[:i]
	}
	return entry
}

// Short compresses a qualified name for diagnostics by dropping each
// import path's directory prefix:
// "(*repro/internal/journal.Appender).Append" -> "(*journal.Appender).Append".
func Short(full string) string {
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
