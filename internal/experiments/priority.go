package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
)

// PriorityPoint is one point of the process-priority study: the Sec. VII
// future-work direction where system software encodes competitive process
// priorities as asymmetric F3FS CAPs.
type PriorityPoint struct {
	MemPriority, PIMPriority int
	MemCap, PIMCap           int
	GPUSpeedup, PIMSpeedup   float64
	Fairness, Throughput     float64
}

// PrioritySweep runs F3FS with CAPs derived from each priority ratio
// (core.CapsForPriorities over the given budget), averaged across the
// supplied kernel pairs.
func (r *Runner) PrioritySweep(ctx context.Context, gpuIDs, pimIDs []string, ratios [][2]int, budget int, mode config.VCMode) ([]PriorityPoint, error) {
	var cells []Cell
	scheds := make([]*config.Sched, len(ratios))
	for i, ratio := range ratios {
		scheds[i] = r.withCaps(core.CapsForPriorities(ratio[0], ratio[1], budget, r.Cfg.PIM.RFPerBank()))
		cells = append(cells, cross(gpuIDs, pimIDs, "f3fs", mode, scheds[i])...)
	}
	pairs, _, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	var out []PriorityPoint
	n := len(gpuIDs) * len(pimIDs)
	for i, ratio := range ratios {
		point := pairs[i*n : (i+1)*n]
		out = append(out, PriorityPoint{
			MemPriority: ratio[0], PIMPriority: ratio[1],
			MemCap: scheds[i].F3FSMemCap, PIMCap: scheds[i].F3FSPIMCap,
			GPUSpeedup: mean(point, gpuSpeedup), PIMSpeedup: mean(point, pimSpeedup),
			Fairness: mean(point, fairness), Throughput: mean(point, throughput),
		})
	}
	return out, nil
}

// PriorityTable renders the priority study.
func PriorityTable(points []PriorityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %9s %9s %8s %8s\n", "mem:pim", "caps", "gpu-spd", "pim-spd", "FI", "ST")
	for _, p := range points {
		fmt.Fprintf(&b, "%4d:%-5d %5d/%-6d %9.3f %9.3f %8.3f %8.3f\n",
			p.MemPriority, p.PIMPriority, p.MemCap, p.PIMCap,
			p.GPUSpeedup, p.PIMSpeedup, p.Fairness, p.Throughput)
	}
	return b.String()
}
