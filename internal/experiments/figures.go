package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
)

// Figure is one regenerable artifact of the evaluation.
type Figure struct {
	// ID is the `pim sweep -fig` value.
	ID string
	// Title is the one-line description shown in usage text.
	Title string
	// QuickGPUs, when set, replaces DefaultGPUKernels as the figure's
	// quick GPU subset.
	QuickGPUs []string
	// run executes the experiment on r over the given kernel and policy
	// sets and reduces it to the tables the figure prints.
	run func(ctx context.Context, r *Runner, gpus, pims, policies []string) ([]*Table, error)
	// Reduce, set instead of run by the figures over the competitive
	// sweep (Figs. 6, 8, 10 and 13), reduces that sweep to the figure's
	// tables.
	Reduce func(*Sweep) ([]*Table, error)
}

// Kernels returns the kernel sets the figure runs over: everything, or
// its quick subset.
func (f Figure) Kernels(all bool) (gpus, pims []string) {
	switch {
	case all:
		return AllGPUKernels(), AllPIMKernels()
	case f.QuickGPUs != nil:
		return f.QuickGPUs, DefaultPIMKernels
	}
	return DefaultGPUKernels, DefaultPIMKernels
}

// tables executes the experiment on r over the given kernel and policy
// sets and returns the tables the figure prints.
func (f Figure) tables(ctx context.Context, r *Runner, gpus, pims, policies []string) ([]*Table, error) {
	if f.Reduce == nil {
		return f.run(ctx, r, gpus, pims, policies)
	}
	s, err := r.figureSweep(ctx, gpus, pims, policies)
	if err != nil {
		return nil, err
	}
	return f.Reduce(s)
}

// Run executes the experiment on r over the given kernel and policy sets
// and renders its tables.
func (f Figure) Run(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
	tabs, err := f.tables(ctx, r, gpus, pims, policies)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range tabs {
		b.WriteString(t.String())
	}
	return b.String(), nil
}

// FigureByID looks a figure up in the registry.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

var bothModes = []config.VCMode{config.VC1, config.VC2}

// figureSweep is the competitive sweep behind Figs. 6, 8, 10 and 13. A
// figure needs every cell, so the first combination the sweep
// quarantined fails it (Sweep.Quarantined). The last sweep is kept, so
// consecutive figures over the same axes — `-fig all` — reduce one sweep
// instead of repeating it.
func (r *Runner) figureSweep(ctx context.Context, gpus, pims, policies []string) (*Sweep, error) {
	key := fmt.Sprint(r.Cfg, r.Scale, gpus, pims, policies)
	if r.figSweep == nil || r.figSweepKey != key {
		s, err := r.RunSweepCtx(ctx, gpus, pims, policies, bothModes)
		if err != nil {
			return nil, err
		}
		if re := s.Quarantined(); re != nil {
			return nil, re
		}
		r.figSweep, r.figSweepKey = s, key
	}
	return r.figSweep, nil
}

// one passes a single table on as a figure's result, or the error.
func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Figures is the registry of every figure and study, in paper order.
// `pim sweep`'s -fig lookup, its usage text and `-fig all` (hence `make
// figures` and the golden check), the benchmark table in bench_test.go
// and EXPERIMENTS.md's index are all driven by or checked against it.
var Figures = []Figure{
	{ID: "4", Title: "memory access characterization (Fig. 4)",
		run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) ([]*Table, error) {
			c, err := r.Characterize(ctx, gpus, pims)
			if err != nil {
				return nil, err
			}
			return []*Table{c.table()}, nil
		}},
	{ID: "5", Title: "co-runner impact on the Rodinia suite (Fig. 5)",
		run: func(ctx context.Context, r *Runner, gpus, _, _ []string) ([]*Table, error) {
			return one(r.coRun(ctx, gpus, []string{"G4", "G6", "G15", "G17", "P1"}))
		}},
	{ID: "6", Title: "normalized MEM arrival rates per policy (Fig. 6)", Reduce: (*Sweep).arrivalRates},
	{ID: "8", Title: "fairness index and system throughput (Fig. 8)", Reduce: (*Sweep).fairnessThroughput},
	{ID: "10", Title: "mode switches and switch overheads (Fig. 10)", Reduce: (*Sweep).switchOverheads},
	{ID: "11", Title: "LLM speedup, QKV generation overlapped with attention (Fig. 11)",
		run: func(ctx context.Context, r *Runner, _, _, policies []string) ([]*Table, error) {
			res, err := r.CollaborativeSweep(ctx, policies, bothModes)
			if err != nil {
				return nil, err
			}
			return []*Table{collabTable(res)}, nil
		}},
	{ID: "13", Title: "compute- vs memory-intensive extremes (Fig. 13)",
		QuickGPUs: []string{"G10", "G6", "G11", "G17", "G19"}, Reduce: (*Sweep).intensitySlice},
	studyFigure("14a", "F3FS component ablation (Fig. 14a)", study{
		heading: "Fig. 14a: F3FS component ablation (VC2, P2 + LLM)",
		head:    fmt.Sprintf("%-22s %8s %8s %9s %8s", "stage", "FI", "ST", "MEM-shr", "LLM"),
		row:     "%-22s %8.3f %8.3f %9.3f %8.3f",
		cols:    []string{"FI", "ST", "MEM-shr", "LLM"},
		mode:    config.VC2, pims: []string{"P2"}, llm: true,
		// F3FS's three components added one at a time over FR-FCFS-Cap:
		// the CAP counts current-mode bypasses instead of row hits, then
		// current-mode-first arbitration (= F3FS, symmetric CAPs), then
		// asymmetric CAPs.
		points: []point{
			{"fr-fcfs-cap", "fr-fcfs-cap", nil},
			{"+mode-cap", "mode-cap-fr-fcfs", nil},
			{"+current-mode-first", "f3fs", nil},
			{"+asymmetric-caps", "f3fs", func(c *config.Config) { c.Sched.F3FSMemCap, c.Sched.F3FSPIMCap = 256, 128 }},
		}}),
	studyFigure("14b", "interconnect queue size sensitivity (Fig. 14b)", study{
		heading: "Fig. 14b: F3FS sensitivity to interconnect queue size (VC2)",
		head:    fmt.Sprintf("%-10s %8s %8s", "queue", "FI", "ST"),
		row:     "%-10s %8.3f %8.3f",
		cols:    []string{"FI", "ST"},
		mode:    config.VC2,
		points: axis([]int{256, 512, 1024}, func(size int) point {
			return point{fmt.Sprint(size), "f3fs", func(c *config.Config) { c.NoC.BufferSize = size }}
		})}),
	studyFigure("cap", "F3FS CAP sensitivity (Sec. VII-B)", study{
		heading: "F3FS CAP sensitivity (VC2, symmetric caps)",
		head:    fmt.Sprintf("%-12s %8s %8s %8s", "cap", "FI", "ST", "LLM"),
		row:     "%-12s %8.3f %8.3f %8.3f",
		cols:    []string{"FI", "ST", "LLM"},
		mode:    config.VC2, llm: true,
		points: axis([]int{32, 64, 128, 256, 512}, func(cp int) point {
			return point{fmt.Sprintf("%5d/%-6d", cp, cp), "f3fs", func(c *config.Config) { c.Sched.F3FSMemCap, c.Sched.F3FSPIMCap = cp, cp }}
		})}),
	studyFigure("bliss", "BLISS blacklist threshold sweep (Sec. VI-A)", study{
		heading: "BLISS blacklist threshold sweep (VC1)",
		head:    fmt.Sprintf("%-10s %8s %8s", "threshold", "FI", "ST"),
		row:     "%-10s %8.3f %8.3f",
		cols:    []string{"FI", "ST"},
		mode:    config.VC1,
		points: axis([]int{2, 4, 8, 16}, func(th int) point {
			return point{fmt.Sprint(th), "bliss", func(c *config.Config) { c.Sched.BlissThreshold = th }}
		})}),
	studyFigure("priority", "process priorities as asymmetric CAPs (Sec. VII future work)", study{
		heading: "Process priorities as asymmetric F3FS CAPs (Sec. VII future work, VC2)",
		head:    fmt.Sprintf("%-10s %-12s %9s %9s %8s %8s", "mem:pim", "caps", "gpu-spd", "pim-spd", "FI", "ST"),
		row:     "%-10s %5.0f/%-6.0f %9.3f %9.3f %8.3f %8.3f",
		cols:    []string{"mem-cap", "pim-cap", "gpu-spd", "pim-spd", "FI", "ST"},
		mode:    config.VC2,
		// System software encodes competitive process priorities as
		// asymmetric F3FS CAPs, splitting a 512 bypass budget.
		points: axis([][2]int{{1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}}, func(pr [2]int) point {
			return point{fmt.Sprintf("%4d:%-5d", pr[0], pr[1]), "f3fs", func(c *config.Config) {
				c.Sched.F3FSMemCap, c.Sched.F3FSPIMCap = core.CapsForPriorities(pr[0], pr[1], 512, c.PIM.RFPerBank())
			}}
		})}),
	// The dual row buffer removes the switch-induced row conflicts of
	// Fig. 9/10b without any scheduling change, isolating how much of a
	// policy's cost is locality destruction versus queueing.
	studyFigure("dual", "NeuPIMs-style dual row buffer vs shared buffer (extension)", study{
		heading: "NeuPIMs-style dual row buffer vs shared buffer on %s x %s (extension; VC2)",
		head:    fmt.Sprintf("%-14s %8s %8s %8s | %8s %8s %8s", "policy", "FI", "ST", "conf/sw", "dual-FI", "dual-ST", "conf/sw"),
		row:     "%-14s %8.3f %8.3f %8.2f | %8.3f %8.3f %8.2f",
		cols:    []string{"FI", "ST", "conf/sw"},
		mode:    config.VC2, pair: true,
		points:   axis([]string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"}, policyPoint),
		variants: []variant{{}, {"dual-", func(c *config.Config) { c.PIM.DualRowBuffer = true }}},
	}),
	studyFigure("energy", "per-policy DRAM+PIM energy on identical work (extension)", study{
		heading: "Energy per policy on %s x %s (extension; VC2, HBM-class coefficients)",
		head:    fmt.Sprintf("%-14s %10s %10s %10s %10s", "policy", "total-uJ", "nJ/req", "mem-miss", "pim-miss"),
		row:     "%-14s %10.1f %10.2f %10.0f %10.0f",
		cols:    []string{"total-uJ", "nJ/req", "mem-miss", "pim-miss"},
		mode:    config.VC2, pair: true,
	}),
}
