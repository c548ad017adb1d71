// Package serve implements pimserve, the simulation-as-a-service layer:
// an HTTP/JSON daemon that runs simulation requests from many concurrent
// clients on a bounded worker pool over the deterministic kernel, with a
// two-class priority queue (interactive single-cell probes ahead of bulk
// sweep traffic) and a content-addressed result cache.
//
// The cache is keyed by the digest of the *canonical* form of a request:
// every field is resolved to its effective value (defaults filled in,
// aliases normalized, irrelevant knobs elided), so two requests that mean
// the same simulation share one digest — and, because the simulator is
// deterministic (docs/DETERMINISM.md), may legally share one result.
// Duplicate in-flight requests are single-flighted onto one computation.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/workload"
)

// Priority classes of the job queue. Interactive requests (single-cell
// probes from a user poking at the figure space) are always dequeued
// ahead of bulk requests (campaign/sweep traffic).
const (
	PriorityInteractive = "interactive"
	PriorityBulk        = "bulk"
)

// Request is the POST /v1/simulate body. Every simulation-identity field
// is optional except the kernel/policy identity its kind requires;
// omitted fields take the documented defaults, so sparse and fully
// spelled-out requests for the same simulation canonicalize identically.
type Request struct {
	// Kind selects the simulation, one of the experiments run kinds:
	// "competitive" (default; needs GPU, PIM and Policy),
	// "standalone-gpu" (needs GPU) or "standalone-pim" (needs PIM).
	Kind string `json:"kind,omitempty"`
	// GPU and PIM name kernels by ID ("G8", "P1", case-insensitive) or
	// benchmark name ("streamcluster").
	GPU string `json:"gpu,omitempty"`
	PIM string `json:"pim,omitempty"`
	// Policy is the scheduling policy ("f3fs", ...; case-insensitive).
	Policy string `json:"policy,omitempty"`
	// Mode is the interconnect configuration: "VC1" (default) or "VC2",
	// case-insensitive.
	Mode string `json:"mode,omitempty"`
	// Scale shrinks every kernel uniformly; <= 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// Seed overrides the workload randomness base (0 = config default).
	Seed int64 `json:"seed,omitempty"`
	// MaxGPUCycles overrides the convergence bound (0 = config default).
	MaxGPUCycles uint64 `json:"max_gpu_cycles,omitempty"`
	// MemCap and PIMCap override the F3FS per-mode bypass caps
	// (0 = config default). Only a policy that reads a cap keeps it
	// (core.ReadsCaps: f3fs both, mode-cap-fr-fcfs MemCap); for any
	// other policy or a standalone kind it is ignored.
	MemCap int `json:"mem_cap,omitempty"`
	PIMCap int `json:"pim_cap,omitempty"`
	// Faults is a fault schedule in the CLI syntax, e.g.
	// "seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000".
	Faults string `json:"faults,omitempty"`
	// Full selects the full Table I configuration instead of the scaled
	// one.
	Full bool `json:"full,omitempty"`

	// Service fields — they shape how the job is handled, not what is
	// simulated, and are excluded from the content digest.

	// Priority is "interactive" (default) or "bulk".
	Priority string `json:"priority,omitempty"`
	// TimeoutMS bounds this job's wall time (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Canonical is the fully-resolved identity of a simulation: request
// aliases and defaults collapse into one value here, and its JSON
// encoding (struct fields in declaration order — stable) is what the
// content digest hashes.
type Canonical struct {
	Kind   string  `json:"kind"`
	GPUID  string  `json:"gpu,omitempty"`
	PIMID  string  `json:"pim,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Mode   string  `json:"mode"`
	Scale  float64 `json:"scale"`
	// Cfg is the complete resolved configuration (seed, caps, fault
	// schedule, cycle budget, VC mode, ...).
	Cfg config.Config `json:"config"`
}

// VCMode returns the resolved interconnect mode.
func (c Canonical) VCMode() config.VCMode {
	if c.Mode == "VC2" {
		return config.VC2
	}
	return config.VC1
}

// Digest returns the content address of the canonical request: the
// SHA-256 of its JSON encoding, in hex.
func (c Canonical) Digest() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Canonical is a closed struct of marshalable fields; this is
		// unreachable, but never panic a serving daemon over it.
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// resolveKernelID maps a case-insensitive kernel ID or benchmark name to
// the canonical profile ID.
func resolveKernelID(raw string, gpu bool) (string, error) {
	id := strings.TrimSpace(raw)
	if gpu {
		p, err := workload.GPUProfileByID(id)
		if err != nil {
			p, err = workload.GPUProfileByID(strings.ToUpper(id))
		}
		if err != nil {
			return "", err
		}
		return p.ID, nil
	}
	p, err := workload.PIMProfileByID(id)
	if err != nil {
		p, err = workload.PIMProfileByID(strings.ToUpper(id))
	}
	if err != nil {
		return "", err
	}
	return p.ID, nil
}

// Canonicalize resolves a request into its canonical form, validating
// every field. Service fields (Priority, TimeoutMS) are ignored here.
func Canonicalize(req Request) (Canonical, error) {
	var c Canonical

	c.Kind = strings.ToLower(strings.TrimSpace(req.Kind))
	switch c.Kind {
	case "":
		c.Kind = experiments.KindCompetitive
	case experiments.KindCompetitive, experiments.KindStandaloneGPU, experiments.KindStandalonePIM:
	default:
		return Canonical{}, fmt.Errorf("serve: unknown kind %q (want %s, %s or %s)",
			req.Kind, experiments.KindCompetitive, experiments.KindStandaloneGPU, experiments.KindStandalonePIM)
	}

	var err error
	if c.Kind != experiments.KindStandalonePIM {
		if strings.TrimSpace(req.GPU) == "" {
			return Canonical{}, fmt.Errorf("serve: kind %s requires a gpu kernel", c.Kind)
		}
		if c.GPUID, err = resolveKernelID(req.GPU, true); err != nil {
			return Canonical{}, fmt.Errorf("serve: %w", err)
		}
	}
	if c.Kind != experiments.KindStandaloneGPU {
		if strings.TrimSpace(req.PIM) == "" {
			return Canonical{}, fmt.Errorf("serve: kind %s requires a pim kernel", c.Kind)
		}
		if c.PIMID, err = resolveKernelID(req.PIM, false); err != nil {
			return Canonical{}, fmt.Errorf("serve: %w", err)
		}
	}

	cfg := config.Scaled()
	if req.Full {
		cfg = config.Paper()
	}

	// Policy and interconnect mode matter only for the contended run;
	// standalone baselines always measure under FR-FCFS on VC1 (the
	// runner's definition), so those knobs are elided from the identity.
	if c.Kind == experiments.KindCompetitive {
		pol := strings.ToLower(strings.TrimSpace(req.Policy))
		if pol == "" {
			return Canonical{}, fmt.Errorf("serve: kind %s requires a policy", c.Kind)
		}
		if core.Factory(pol, cfg.Sched) == nil {
			return Canonical{}, fmt.Errorf("serve: unknown policy %q", req.Policy)
		}
		c.Policy = pol
		switch strings.ToUpper(strings.TrimSpace(req.Mode)) {
		case "", "VC1":
			c.Mode = "VC1"
		case "VC2":
			c.Mode = "VC2"
		default:
			return Canonical{}, fmt.Errorf("serve: unknown mode %q (want VC1 or VC2)", req.Mode)
		}
	} else {
		c.Mode = "VC1"
	}
	cfg.NoC.Mode = c.VCMode()

	c.Scale = req.Scale
	if c.Scale <= 0 {
		c.Scale = 1
	}

	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	if req.MaxGPUCycles > 0 {
		cfg.MaxGPUCycles = req.MaxGPUCycles
	}
	// A cap the run's policy never reads keeps its default, so it cannot
	// split one simulation across two digests; a standalone run's
	// fr-fcfs reads neither.
	readsMem, readsPIM := core.ReadsCaps(c.Policy)
	if req.MemCap > 0 && readsMem {
		cfg.Sched.F3FSMemCap = req.MemCap
	}
	if req.PIMCap > 0 && readsPIM {
		cfg.Sched.F3FSPIMCap = req.PIMCap
	}
	if strings.TrimSpace(req.Faults) != "" {
		fs, err := faults.ParseSchedule(req.Faults)
		if err != nil {
			return Canonical{}, fmt.Errorf("serve: %w", err)
		}
		// The run reads only a schedule's Effective fields (none of an
		// inactive one, such as "seed=5" or "dram=0:12"), and schedule
		// seed 0 inherits the config seed at run time; resolve both now
		// so "seed=0,..." and "seed=<cfg seed>,..." share a digest.
		if fs = fs.Effective(); fs.Active() && fs.Seed == 0 {
			fs.Seed = cfg.Seed
		}
		cfg.Faults = fs
	}

	if err := cfg.Validate(); err != nil {
		return Canonical{}, fmt.Errorf("serve: %w", err)
	}
	c.Cfg = cfg
	return c, nil
}

// ParseClass maps a request priority string to a queue class.
func ParseClass(priority string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(priority)) {
	case "", PriorityInteractive:
		return ClassInteractive, nil
	case PriorityBulk:
		return ClassBulk, nil
	default:
		return ClassInteractive, fmt.Errorf("serve: unknown priority %q (want %s or %s)",
			priority, PriorityInteractive, PriorityBulk)
	}
}
