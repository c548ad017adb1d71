// Package pimsim is a cycle-level simulator for concurrent PIM and
// load/store servicing in PIM-enabled memory, reproducing Gupta et al.,
// "Concurrent PIM and Load/Store Servicing in PIM-Enabled Memory"
// (ISPASS 2025).
//
// The simulator models a PIM-enabled GPU (Fig. 1 of the paper): SMs
// issuing MEM and PIM request streams, a crossbar interconnect with an
// optional separate virtual channel for PIM traffic (the paper's VC2
// proposal), per-channel L2 slices, and per-channel memory controllers
// that switch between MEM and PIM modes under one of nine scheduling
// policies — including F3FS, the paper's contribution.
//
// # Quick start
//
//	cfg := pimsim.ScaledConfig()
//	r := pimsim.NewRunner(cfg, 0.25)
//	pair, err := r.Competitive("G8", "P1", "f3fs", pimsim.VC2)
//	// pair.Fairness, pair.Throughput, pair.Switches ...
//
// Lower-level control (custom kernels, custom policies) goes through
// NewSystem; the examples directory demonstrates both levels.
package pimsim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/llm"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config is the full system configuration (Table I).
type Config = config.Config

// VCMode selects the interconnect configuration of Sec. V.
type VCMode = config.VCMode

// VC1 is the baseline shared interconnect; VC2 adds a separate virtual
// channel for PIM requests with total buffering held equal.
const (
	VC1 = config.VC1
	VC2 = config.VC2
)

// AddressMap selects the physical address mapping; the paper's regular
// interleaved scheme is the default, I-poly hashing is the GPU default
// the paper disables for PIM programmability.
type AddressMap = config.AddressMap

// MapInterleaved and MapIPoly are the two address mapping schemes.
const (
	MapInterleaved = config.MapInterleaved
	MapIPoly       = config.MapIPoly
)

// PagePolicy selects the MEM-mode row-buffer management: PageOpen is the
// paper's baseline, PageClosed the auto-precharge extension knob.
type PagePolicy = config.PagePolicy

// PageOpen and PageClosed are the two row-buffer policies.
const (
	PageOpen   = config.PageOpen
	PageClosed = config.PageClosed
)

// PaperConfig returns the full Table I configuration (32 channels, 80
// SMs). ScaledConfig returns a reduced configuration with the same
// structure and timing, sized so full sweeps run on a laptop.
func PaperConfig() Config  { return config.Paper() }
func ScaledConfig() Config { return config.Scaled() }

// Policies returns the nine evaluated scheduling policy names in paper
// order: fcfs, mem-first, pim-first, fr-fcfs, fr-fcfs-cap, bliss,
// fr-rr-fcfs, gather-issue, f3fs.
func Policies() []string { return append([]string(nil), core.PolicyNames...) }

// Policy is the memory-controller mode-switching policy interface: Name,
// DesiredMode, OnIssue and OnSwitch. Inside MEM mode the controller runs
// the paper's FR-FCFS, unless the policy also has the two MEM-engine
// gates MemRowHitsAllowed and MemConflictServiceAllowed (sched.MemGate).
// See examples/custompolicy for implementing your own.
type Policy = sched.Policy

// PolicyFactory builds one policy instance per memory channel.
type PolicyFactory = sched.PolicyFactory

// SchedView is the controller state a policy observes each DRAM cycle;
// SchedMode is the MEM/PIM servicing mode; IssueInfo describes an issue
// event reported to the policy.
type (
	SchedView = sched.View
	SchedMode = sched.Mode
	IssueInfo = sched.IssueInfo
)

// ModeMEM and ModePIM are the two controller servicing modes.
const (
	ModeMEM = sched.ModeMEM
	ModePIM = sched.ModePIM
)

// NewPolicy builds a named policy with the configuration's knobs; it
// returns nil for unknown names.
func NewPolicy(name string, cfg Config) Policy { return core.NewPolicy(name, cfg.Sched) }

// F3FS is the paper's proposed policy (First Mode-FR-FCFS).
type F3FS = core.F3FS

// NewF3FS builds F3FS with explicit per-mode CAPs.
func NewF3FS(memCap, pimCap int) *F3FS { return core.NewF3FS(memCap, pimCap) }

// Proposed mutates cfg to the paper's full proposal (VC2 + F3FS) and
// returns the policy name to run.
func Proposed(cfg *Config) string { return core.Proposed(cfg) }

// GPUProfile and PIMProfile are synthetic kernel models; the built-in
// tables follow the paper's Tables II and III. Custom profiles are
// validated at System construction.
type (
	GPUProfile = workload.GPUProfile
	PIMProfile = workload.PIMProfile
	PIMSegment = workload.PIMSegment
	PIMOpKind  = request.PIMOpKind
)

// PIM operation kinds for building custom PIM kernel segments: load a
// DRAM word into the register file, combine through the SIMD ALU, store a
// register-file entry back.
const (
	PIMLoadOp    = request.PIMLoad
	PIMComputeOp = request.PIMCompute
	PIMStoreOp   = request.PIMStore
)

// GPUProfiles returns the twenty Rodinia kernel models (G1..G20).
func GPUProfiles() []GPUProfile { return workload.GPUProfiles() }

// PIMProfiles returns the nine PIM kernel models (P1..P9).
func PIMProfiles() []PIMProfile { return workload.PIMProfiles() }

// GPUProfileByID resolves "G7" or a benchmark name.
func GPUProfileByID(id string) (GPUProfile, error) { return workload.GPUProfileByID(id) }

// PIMProfileByID resolves "P3" or a benchmark name.
func PIMProfileByID(id string) (PIMProfile, error) { return workload.PIMProfileByID(id) }

// System is one configured simulation; KernelDesc describes a kernel to
// launch; Result and KernelResult are run outcomes.
type (
	System       = sim.System
	KernelDesc   = sim.KernelDesc
	Result       = sim.Result
	KernelResult = sim.KernelResult
)

// NewSystem builds a simulation of the described kernels under the named
// policy.
func NewSystem(cfg Config, policy string, descs []KernelDesc) (*System, error) {
	factory := core.Factory(policy, cfg.Sched)
	if factory == nil {
		return nil, fmt.Errorf("pimsim: unknown policy %q", policy)
	}
	return sim.New(cfg, factory, descs)
}

// NewSystemWithFactory builds a simulation with a custom policy factory
// (one instance per channel).
func NewSystemWithFactory(cfg Config, factory PolicyFactory, descs []KernelDesc) (*System, error) {
	return sim.New(cfg, factory, descs)
}

// GPUAndPIMSMs partitions SMs for co-execution.
func GPUAndPIMSMs(cfg Config) (gpuSMs, pimSMs []int) { return sim.GPUAndPIMSMs(cfg) }

// Runner caches standalone baselines and runs the paper's experiments;
// the re-exported types are their raw per-cell results. Every figure —
// the paper's and the design-point studies (Fig. 14a/b, the CAP and
// BLISS sweeps, the dual-buffer extension) — reduces
// them to tables in the figure registry, reached through Figures.
type (
	Runner           = experiments.Runner
	Standalone       = experiments.Standalone
	Pair             = experiments.Pair
	Sweep            = experiments.Sweep
	Characterization = experiments.Characterization
	CollabResult     = experiments.CollabResult
)

// Figure is one entry of the figure registry: an ID (the `pim sweep -fig`
// value), a title, and Run, which runs the experiment on a Runner and
// renders the tables it reduces to (one renderer for every figure).
// Figures lists every figure and study in paper order; cmd/pim and the
// benchmarks in bench_test.go are driven by it.
type Figure = experiments.Figure

func Figures() []Figure { return append([]Figure(nil), experiments.Figures...) }

// NewRunner builds an experiment runner at the given workload scale
// (1.0 = the profiles' default sizes).
func NewRunner(cfg Config, scale float64) *Runner { return experiments.NewRunner(cfg, scale) }

// AllGPUKernels and AllPIMKernels list every benchmark ID; the Default
// variants are the quick-sweep subsets.
func AllGPUKernels() []string     { return experiments.AllGPUKernels() }
func AllPIMKernels() []string     { return experiments.AllPIMKernels() }
func DefaultGPUKernels() []string { return append([]string(nil), experiments.DefaultGPUKernels...) }
func DefaultPIMKernels() []string { return append([]string(nil), experiments.DefaultPIMKernels...) }

// Telemetry: the observability layer (see docs/ARCHITECTURE.md,
// "Observability"). A system with System.EnableTelemetry called before
// Run carries a TelemetryCollector (epoch sample ring + the metric points
// the run published when it ended) on its Result, and every Result
// carries a TelemetryManifest identifying the run.
type (
	TelemetryCollector = telemetry.Collector
	TelemetryManifest  = telemetry.Manifest
)

// LLMModel is the collaborative GPT-3-like scenario shape.
type LLMModel = llm.Model

// GPT3Like returns the paper's batch-128 / seq-1024 / embed-4096 model.
func GPT3Like() LLMModel { return llm.GPT3Like() }

// FairnessIndex is Eq. 1: min(s1/s2, s2/s1).
func FairnessIndex(s1, s2 float64) float64 { return stats.FairnessIndex(s1, s2) }

// SystemThroughput is the sum of kernel speedups.
func SystemThroughput(speedups ...float64) float64 { return stats.SystemThroughput(speedups...) }

// Fault injection: FaultSchedule is a deterministic, seed-driven schedule
// of DRAM ECC/CAS retries, NoC link stalls and whole-channel throttle
// windows (set Config.Faults; the zero value disables injection).
// FaultCounts tallies injected events; Result.Faults and Pair.Faults
// carry it when a schedule was active.
type (
	FaultSchedule = faults.Schedule
	FaultCounts   = faults.Counts
)

// Resilience: ErrStarved is the typed no-forward-progress abort carried
// on Result.Starved; ErrInterrupted is the typed cancellation/deadline
// interrupt returned by System.RunContext; QueueSnapshot is the
// per-channel controller state both embed.
type (
	ErrStarved     = sim.ErrStarved
	ErrInterrupted = sim.ErrInterrupted
	QueueSnapshot  = sim.QueueSnapshot
)

// RunError is the structured failure of one harness run (panic, per-run
// timeout, cancellation), carrying a diagnostic bundle; it marshals to
// JSON for campaign error files.
type RunError = experiments.RunError
