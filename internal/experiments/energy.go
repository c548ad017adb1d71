package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/energy"
)

// EnergyPoint is one policy's energy outcome on a fixed workload pair —
// a library extension (the paper evaluates performance only): because
// the work done is identical across policies, differences isolate the
// scheduling policy's energy cost (extra activates from lost locality,
// extra broadcast row swaps from frequent switching).
type EnergyPoint struct {
	Policy string
	// TotalUJ is the total energy in microjoules; PerRequestNJ the
	// average nanojoules per serviced request.
	TotalUJ      float64
	PerRequestNJ float64
	// RowMisses and PIMRowMisses drive the activate energy.
	RowMisses, PIMRowMisses uint64
	Breakdown               energy.Breakdown
}

// EnergySweep co-runs one GPU/PIM pair under each policy and estimates
// the DRAM+PIM energy of each run with the given model.
func (r *Runner) EnergySweep(ctx context.Context, gpuID, pimID string, policies []string, mode config.VCMode, m energy.Model) ([]EnergyPoint, error) {
	var cells []Cell
	for _, policy := range policies {
		cells = append(cells, Cell{GPU: gpuID, PIM: pimID, Policy: policy, Mode: mode})
	}
	_, results, err := r.sweep(ctx, cells, nil)
	if err != nil {
		return nil, err
	}
	mem := r.Cfg.Memory
	var out []EnergyPoint
	for i, res := range results {
		b := m.Estimate(res.Stats, mem.Banks, mem.Channels, mem.ClockMHz)
		tc := res.Stats.TotalChannel()
		out = append(out, EnergyPoint{
			Policy:       policies[i],
			TotalUJ:      b.Total() / 1000,
			PerRequestNJ: m.PerRequestNJ(res.Stats, mem.Banks, mem.Channels, mem.ClockMHz),
			RowMisses:    tc.RowMisses,
			PIMRowMisses: tc.PIMRowMisses,
			Breakdown:    b,
		})
	}
	return out, nil
}

// EnergyTable renders the energy comparison.
func EnergyTable(points []EnergyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "policy", "total-uJ", "nJ/req", "mem-miss", "pim-miss")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %10.1f %10.2f %10d %10d\n",
			p.Policy, p.TotalUJ, p.PerRequestNJ, p.RowMisses, p.PIMRowMisses)
	}
	return b.String()
}
