package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
)

// AblationStage is one bar of Fig. 14a.
type AblationStage struct {
	// Name identifies the design point.
	Name string
	// Fairness and Throughput are competitive metrics for the target
	// PIM kernel averaged across GPU kernels; MemShare is the MEM
	// fraction of throughput.
	Fairness, Throughput, MemShare float64
	// LLMSpeedup is the collaborative metric.
	LLMSpeedup float64
}

// Ablation reproduces Fig. 14a: the incremental impact of F3FS's three
// components over FR-FCFS-Cap, measured on one PIM kernel (P2 in the
// paper, averaged across GPU kernels) and on the LLM, under VC2.
//
// Stages: (0) FR-FCFS-Cap baseline; (1) the CAP counts current-mode
// bypasses instead of row hits; (2) current-mode-first arbitration
// (= F3FS, symmetric CAPs); (3) asymmetric CAPs (256/128).
func (r *Runner) Ablation(ctx context.Context, gpuIDs []string, pimID string) ([]AblationStage, error) {
	stages := []struct {
		name, policy string
		sched        *config.Sched
	}{
		{"fr-fcfs-cap", "fr-fcfs-cap", nil},
		{"+mode-cap", "mode-cap-fr-fcfs", nil},
		{"+current-mode-first", "f3fs", nil},
		{"+asymmetric-caps", "f3fs", r.withCaps(256, 128)},
	}
	var cells []Cell
	for _, st := range stages {
		cells = append(cells, cross(gpuIDs, []string{pimID}, st.policy, config.VC2, st.sched)...)
		cells = append(cells, llmCell(st.policy, config.VC2, st.sched))
	}
	pairs, results, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	var out []AblationStage
	n := len(gpuIDs) + 1 // cells per stage, the LLM last
	for i, st := range stages {
		llm := (i+1)*n - 1
		competitive := pairs[i*n : llm]
		collab, err := r.collab(ctx, cells[llm], results[llm])
		if err != nil {
			return nil, err
		}
		out = append(out, AblationStage{
			Name:       st.name,
			Fairness:   mean(competitive, fairness),
			Throughput: mean(competitive, throughput),
			MemShare:   mean(competitive, memShare),
			LLMSpeedup: collab.Speedup,
		})
	}
	return out, nil
}

// AblationTable renders Fig. 14a.
func AblationTable(stages []AblationStage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %8s %9s %8s\n", "stage", "FI", "ST", "MEM-shr", "LLM")
	for _, s := range stages {
		fmt.Fprintf(&b, "%-22s %8.3f %8.3f %9.3f %8.3f\n", s.Name, s.Fairness, s.Throughput, s.MemShare, s.LLMSpeedup)
	}
	return b.String()
}

// QueuePoint is one bar of Fig. 14b.
type QueuePoint struct {
	QueueSize            int
	Fairness, Throughput float64
}

// QueueSensitivity reproduces Fig. 14b: F3FS under VC2 with the
// interconnect queue size swept from half to double the baseline.
func (r *Runner) QueueSensitivity(ctx context.Context, gpuIDs, pimIDs []string, sizes []int) ([]QueuePoint, error) {
	var out []QueuePoint
	for _, size := range sizes {
		cfg := r.Cfg
		cfg.NoC.BufferSize = size
		pairs, _, err := r.derive(cfg).sweep(ctx, cross(gpuIDs, pimIDs, "f3fs", config.VC2, nil), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, QueuePoint{QueueSize: size, Fairness: mean(pairs, fairness), Throughput: mean(pairs, throughput)})
	}
	return out, nil
}

// QueueTable renders Fig. 14b.
func QueueTable(points []QueuePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "queue", "FI", "ST")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %8.3f %8.3f\n", p.QueueSize, p.Fairness, p.Throughput)
	}
	return b.String()
}

// CapPoint is one point of the Sec. VII-B CAP sensitivity study.
type CapPoint struct {
	MemCap, PIMCap       int
	Fairness, Throughput float64
	LLMSpeedup           float64
}

// CapSensitivity sweeps F3FS CAPs: symmetric values, for the competitive
// metrics and for the LLM alike.
func (r *Runner) CapSensitivity(ctx context.Context, gpuIDs, pimIDs []string, caps []int, mode config.VCMode) ([]CapPoint, error) {
	var cells []Cell
	for _, c := range caps {
		sched := r.withCaps(c, c)
		cells = append(cells, cross(gpuIDs, pimIDs, "f3fs", mode, sched)...)
		cells = append(cells, llmCell("f3fs", mode, sched))
	}
	pairs, results, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	var out []CapPoint
	n := len(gpuIDs)*len(pimIDs) + 1 // cells per CAP value, the LLM last
	for i, c := range caps {
		llm := (i+1)*n - 1
		collab, err := r.collab(ctx, cells[llm], results[llm])
		if err != nil {
			return nil, err
		}
		competitive := pairs[i*n : llm]
		out = append(out, CapPoint{
			MemCap: c, PIMCap: c,
			Fairness: mean(competitive, fairness), Throughput: mean(competitive, throughput),
			LLMSpeedup: collab.Speedup,
		})
	}
	return out, nil
}

// CapTable renders the CAP sensitivity study.
func CapTable(points []CapPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "cap", "FI", "ST", "LLM")
	for _, p := range points {
		fmt.Fprintf(&b, "%5d/%-6d %8.3f %8.3f %8.3f\n", p.MemCap, p.PIMCap, p.Fairness, p.Throughput, p.LLMSpeedup)
	}
	return b.String()
}

// DualBufferPoint compares one policy with and without the NeuPIMs-style
// dual row buffer (related-work extension): the dual buffer removes the
// switch-induced row conflicts of Fig. 9/10b without any scheduling
// change, isolating how much of a policy's cost is locality destruction
// versus queueing.
type DualBufferPoint struct {
	Policy                 string
	Fairness, Throughput   float64
	ConflictsPerSwitch     float64
	DualFairness           float64
	DualThroughput         float64
	DualConflictsPerSwitch float64
}

// DualBufferAblation runs the given kernel pair under each policy, with
// the shared row buffer (paper baseline) and with the dual buffer.
func (r *Runner) DualBufferAblation(ctx context.Context, gpuID, pimID string, policies []string, mode config.VCMode) ([]DualBufferPoint, error) {
	var cells []Cell
	for _, policy := range policies {
		cells = append(cells, Cell{GPU: gpuID, PIM: pimID, Policy: policy, Mode: mode})
	}
	base, _, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	dualCfg := r.Cfg
	dualCfg.PIM.DualRowBuffer = true
	dual, _, err := r.derive(dualCfg).sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	var out []DualBufferPoint
	for i, policy := range policies {
		out = append(out, DualBufferPoint{
			Policy:                 policy,
			Fairness:               base[i].Fairness,
			Throughput:             base[i].Throughput,
			ConflictsPerSwitch:     base[i].ConflictsPerSwitch,
			DualFairness:           dual[i].Fairness,
			DualThroughput:         dual[i].Throughput,
			DualConflictsPerSwitch: dual[i].ConflictsPerSwitch,
		})
	}
	return out, nil
}

// DualBufferTable renders the comparison.
func DualBufferTable(points []DualBufferPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %8s %8s | %8s %8s %8s\n",
		"policy", "FI", "ST", "conf/sw", "dual-FI", "dual-ST", "conf/sw")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.2f | %8.3f %8.3f %8.2f\n",
			p.Policy, p.Fairness, p.Throughput, p.ConflictsPerSwitch,
			p.DualFairness, p.DualThroughput, p.DualConflictsPerSwitch)
	}
	return b.String()
}

// BlissPoint is one point of the Sec. VI-A blacklist threshold sweep.
type BlissPoint struct {
	Threshold            int
	Fairness, Throughput float64
}

// BlissSweep sweeps the BLISS blacklist threshold (the paper notes BLISS
// performs best with a low threshold, converging toward FR-FCFS).
func (r *Runner) BlissSweep(ctx context.Context, gpuIDs, pimIDs []string, thresholds []int, mode config.VCMode) ([]BlissPoint, error) {
	var cells []Cell
	for _, th := range thresholds {
		sched := r.Cfg.Sched
		sched.BlissThreshold = th
		cells = append(cells, cross(gpuIDs, pimIDs, "bliss", mode, &sched)...)
	}
	pairs, _, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	var out []BlissPoint
	n := len(gpuIDs) * len(pimIDs)
	for i, th := range thresholds {
		point := pairs[i*n : (i+1)*n]
		out = append(out, BlissPoint{Threshold: th, Fairness: mean(point, fairness), Throughput: mean(point, throughput)})
	}
	return out, nil
}

// BlissTable renders the threshold sweep.
func BlissTable(points []BlissPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "threshold", "FI", "ST")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %8.3f %8.3f\n", p.Threshold, p.Fairness, p.Throughput)
	}
	return b.String()
}
