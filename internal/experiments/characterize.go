package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
)

// BoxStats is a box-and-whisker summary (Fig. 4's presentation).
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

func boxOf(xs []float64) BoxStats {
	q, ok := stats.QuartilesOf(xs)
	if !ok {
		return BoxStats{} // empty group: render a degenerate box
	}
	return BoxStats{Min: q.Min, Q1: q.Q1, Median: q.Median, Q3: q.Q3, Max: q.Max}
}

// Characterization reproduces Fig. 4: the memory access characteristics
// of the Rodinia suite on all SMs (GPU-80 in the paper) and on the PIM SM
// count (GPU-8), and of the PIM kernels, under FR-FCFS.
type Characterization struct {
	// Groups are "GPU-<all>", "GPU-<few>", "PIM".
	Groups []string
	// NoCRate, MCRate, BLP, RBHR are per-group box summaries in
	// requests/kcycle (rates) and absolute units.
	NoCRate, MCRate, BLP, RBHR map[string]BoxStats
	// PerKernel keeps the raw values for downstream analysis, keyed by
	// group then kernel ID.
	PerKernel map[string]map[string]Standalone
}

// Characterize runs the Fig. 4 characterization for the given kernels.
func (r *Runner) Characterize(ctx context.Context, gpuIDs, pimIDs []string) (*Characterization, error) {
	groups := []struct {
		name string
		ids  []string
		cell func(id string) Cell
	}{
		{fmt.Sprintf("GPU-%d", r.Cfg.GPU.NumSMs), gpuIDs, func(id string) Cell { return aloneGPU(id, r.Cfg.GPU.NumSMs) }},
		{fmt.Sprintf("GPU-%d", r.Cfg.GPU.PIMSMs), gpuIDs, func(id string) Cell { return aloneGPU(id, r.Cfg.GPU.PIMSMs) }},
		{"PIM", pimIDs, alonePIM},
	}
	c := &Characterization{
		NoCRate:   map[string]BoxStats{},
		MCRate:    map[string]BoxStats{},
		BLP:       map[string]BoxStats{},
		RBHR:      map[string]BoxStats{},
		PerKernel: map[string]map[string]Standalone{},
	}
	for _, g := range groups {
		c.Groups = append(c.Groups, g.name)
		c.PerKernel[g.name] = map[string]Standalone{}
		// The boxes are built in kernel order, never from the map.
		var noc, mc, blp, rbhr []float64
		for _, id := range g.ids {
			s, err := r.standalone(ctx, g.cell(id))
			if err != nil {
				return nil, err
			}
			c.PerKernel[g.name][id] = s
			noc = append(noc, s.NoCRate)
			mc = append(mc, s.MCRate)
			blp = append(blp, s.BLP)
			rbhr = append(rbhr, s.RBHR)
		}
		if len(g.ids) == 0 {
			continue
		}
		c.NoCRate[g.name] = boxOf(noc)
		c.MCRate[g.name] = boxOf(mc)
		c.BLP[g.name] = boxOf(blp)
		c.RBHR[g.name] = boxOf(rbhr)
	}
	return c, nil
}

// Table renders the characterization as aligned text.
func (c *Characterization) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %8s %8s %8s %8s %8s\n", "group", "metric", "min", "q1", "median", "q3", "max")
	row := func(group, metric string, bs BoxStats) {
		fmt.Fprintf(&b, "%-10s %-10s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			group, metric, bs.Min, bs.Q1, bs.Median, bs.Q3, bs.Max)
	}
	for _, g := range c.Groups {
		row(g, "noc-rate", c.NoCRate[g])
		row(g, "mc-rate", c.MCRate[g])
		row(g, "blp", c.BLP[g])
		row(g, "rbhr", c.RBHR[g])
	}
	return b.String()
}

// CoRunImpact reproduces Fig. 5: the average speedup of a set of GPU
// kernels on the co-execution SM share, alone and against each co-runner
// (memory-intensive GPU kernels or a PIM kernel on the reserved SMs),
// normalized to running alone on all SMs.
type CoRunImpact struct {
	// CoRunners orders the columns: "none" then each co-runner ID.
	CoRunners []string
	// AvgSpeedup maps co-runner -> mean speedup of the suite.
	AvgSpeedup map[string]float64
	// PerKernel maps co-runner -> suite kernel -> speedup.
	PerKernel map[string]map[string]float64
}

// CoRun runs the Fig. 5 experiment: suite kernels on NumSMs-PIMSMs SMs,
// against co-runners on the remaining SMs — PIM kernels, or GPU kernels
// running there as plain MEM traffic. The leading "none" column measures
// the reduced SM count alone.
func (r *Runner) CoRun(ctx context.Context, suite []string, coRunners []string) (*CoRunImpact, error) {
	var cells []Cell
	for _, id := range suite {
		cells = append(cells, aloneGPU(id, r.Cfg.GPU.NumSMs-r.Cfg.GPU.PIMSMs))
	}
	for _, co := range coRunners {
		cells = append(cells, cross(suite, []string{co}, "fr-fcfs", config.VC1, nil)...)
	}
	pairs, _, err := r.sweep(ctx, r.tasks(cells), nil)
	if err != nil {
		return nil, err
	}
	speedups := make([]float64, len(pairs))
	for i, p := range pairs {
		speedups[i] = p.GPUSpeedup
	}
	return reduceCoRun(suite, append([]string{"none"}, coRunners...), speedups), nil
}

// reduceCoRun folds speedups — co-runner-major, suite kernels in suite
// order within each — into the Fig. 5 summary. The averages sum in that
// order, so they are reproducible bit for bit.
func reduceCoRun(suite, coRunners []string, speedups []float64) *CoRunImpact {
	out := &CoRunImpact{CoRunners: coRunners, AvgSpeedup: map[string]float64{}, PerKernel: map[string]map[string]float64{}}
	for i, co := range coRunners {
		column := speedups[i*len(suite) : (i+1)*len(suite)]
		out.AvgSpeedup[co] = stats.Mean(column)
		out.PerKernel[co] = map[string]float64{}
		for j, id := range suite {
			out.PerKernel[co][id] = column[j]
		}
	}
	return out
}

// Table renders the co-run impact as aligned text.
func (c *CoRunImpact) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s\n", "co-runner", "avg speedup")
	for _, co := range c.CoRunners {
		fmt.Fprintf(&b, "%-10s %12.3f\n", co, c.AvgSpeedup[co])
	}
	return b.String()
}
