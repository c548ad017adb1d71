package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/stats"
)

// Characterization is Fig. 4's raw data: the memory access
// characteristics of the Rodinia suite on all SMs (GPU-80 in the paper)
// and on the PIM SM count (GPU-8), and of the PIM kernels, each kernel
// running alone under FR-FCFS.
type Characterization struct {
	// Groups are "GPU-<all>", "GPU-<few>", "PIM".
	Groups []string
	// PerKernel holds every run, keyed by group then kernel ID.
	PerKernel map[string]map[string]Standalone
	ids       [][]string // each group's kernels, in run order
}

// Characterize runs the Fig. 4 characterization for the given kernels on
// the worker pool.
func (r *Runner) Characterize(ctx context.Context, gpuIDs, pimIDs []string) (*Characterization, error) {
	groups := []struct {
		name string
		ids  []string
		cell func(id string) Cell
	}{
		{fmt.Sprintf("GPU-%d", r.Cfg.GPU.NumSMs), gpuIDs, func(id string) Cell { return aloneGPU(id, r.Cfg.GPU.NumSMs, r.Cfg) }},
		{fmt.Sprintf("GPU-%d", r.Cfg.GPU.PIMSMs), gpuIDs, func(id string) Cell { return aloneGPU(id, r.Cfg.GPU.PIMSMs, r.Cfg) }},
		{"PIM", pimIDs, func(id string) Cell { return alonePIM(id, r.Cfg) }},
	}
	var cells []Cell
	for _, g := range groups {
		for _, id := range g.ids {
			cells = append(cells, g.cell(id))
		}
	}
	alone := make([]Standalone, len(cells))
	if err := r.forEachPairCtx(ctx, len(cells), func(i int) (err error) {
		alone[i], err = r.standalone(ctx, cells[i])
		return err
	}); err != nil {
		return nil, err
	}
	c := &Characterization{PerKernel: map[string]map[string]Standalone{}}
	for _, g := range groups {
		c.Groups, c.ids = append(c.Groups, g.name), append(c.ids, g.ids)
		c.PerKernel[g.name] = map[string]Standalone{}
		for _, id := range g.ids {
			c.PerKernel[g.name][id], alone = alone[0], alone[1:]
		}
	}
	return c, nil
}

// table reduces the characterization to Fig. 4's box-and-whisker
// summaries: per group and metric, the quartiles over the group's
// kernels, rates in requests/kcycle.
func (c *Characterization) table() *Table {
	t := newTable("Fig. 4: memory access characteristics (standalone, FR-FCFS)", fmt.Sprintf("%-10s %-10s", "group", "metric"),
		col{"min", 8, 2}, col{"q1", 8, 2}, col{"median", 8, 2}, col{"q3", 8, 2}, col{"max", 8, 2})
	for i, g := range c.Groups {
		for m, metric := range []string{"noc-rate", "mc-rate", "blp", "rbhr"} {
			var xs []float64
			for _, id := range c.ids[i] {
				s := c.PerKernel[g][id]
				xs = append(xs, [...]float64{s.NoCRate, s.MCRate, s.BLP, s.RBHR}[m])
			}
			q, _ := stats.QuartilesOf(xs) // an empty group renders a degenerate box
			t.add(fmt.Sprintf("%-10s %-10s", g, metric), q.Min, q.Q1, q.Median, q.Q3, q.Max)
		}
	}
	return t
}

// coRun runs the Fig. 5 experiment: suite kernels on NumSMs-PIMSMs SMs,
// against co-runners on the remaining SMs — PIM kernels, or GPU kernels
// running there as plain MEM traffic — normalized to running alone on
// all SMs. The leading "none" row measures the reduced SM count alone.
func (r *Runner) coRun(ctx context.Context, suite []string, coRunners []string) (*Table, error) {
	var cells []Cell
	for _, id := range suite {
		cells = append(cells, aloneGPU(id, r.Cfg.GPU.NumSMs-r.Cfg.GPU.PIMSMs, r.Cfg))
	}
	for _, co := range coRunners {
		cells = append(cells, cross(suite, []string{co}, "fr-fcfs", r.at(config.VC1))...)
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
// order within each — into Fig. 5's average speedup per co-runner. The
// averages sum in that order, so they are reproducible bit for bit.
func reduceCoRun(suite, coRunners []string, speedups []float64) *Table {
	t := newTable("Fig. 5: suite speedup on the co-execution SM share vs co-runner", fmt.Sprintf("%-10s", "co-runner"), col{"avg speedup", 12, 3})
	for i, co := range coRunners {
		t.add(co, stats.Mean(speedups[i*len(suite):(i+1)*len(suite)]))
	}
	return t
}
