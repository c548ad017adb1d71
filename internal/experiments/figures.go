package experiments

import (
	"context"
	"fmt"

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
	// Run executes the experiment on r over the given kernel and policy
	// sets and renders its heading and table(s).
	Run func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error)
	// study is the design-point study Run sweeps and renders, when the
	// figure is one (studyFigure).
	study *study
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

// figureSweep is the competitive sweep behind Figs. 6, 8, 10 and 13. The
// last one is kept, so consecutive figures over the same axes — `-fig
// all` — reduce one sweep instead of repeating it.
func (r *Runner) figureSweep(ctx context.Context, gpus, pims, policies []string) (*Sweep, error) {
	key := fmt.Sprint(r.Cfg, r.Scale, gpus, pims, policies)
	if r.figSweep == nil || r.figSweepKey != key {
		s, err := r.RunSweepCtx(ctx, gpus, pims, policies, bothModes)
		if err != nil {
			return nil, err
		}
		r.figSweep, r.figSweepKey = s, key
	}
	return r.figSweep, nil
}

// render puts a heading over a table, or passes the error on.
func render(heading string, err error, table func() string) (string, error) {
	if err != nil {
		return "", err
	}
	return heading + "\n" + table(), nil
}

// Figures is the registry of every figure and study, in paper order.
// `pim sweep`'s -fig lookup, its usage text and `-fig all` (hence `make
// figures` and the golden check), the benchmark table in bench_test.go
// and EXPERIMENTS.md's index are all driven by or checked against it.
var Figures = []Figure{
	{ID: "4", Title: "memory access characterization (Fig. 4)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			c, err := r.Characterize(ctx, gpus, pims)
			return render("Fig. 4: memory access characteristics (standalone, FR-FCFS)", err, c.Table)
		}},
	{ID: "5", Title: "co-runner impact on the Rodinia suite (Fig. 5)",
		Run: func(ctx context.Context, r *Runner, gpus, _, _ []string) (string, error) {
			c, err := r.CoRun(ctx, gpus, []string{"G4", "G6", "G15", "G17", "P1"})
			return render("Fig. 5: suite speedup on the co-execution SM share vs co-runner", err, c.Table)
		}},
	{ID: "6", Title: "normalized MEM arrival rates per policy (Fig. 6)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
			s, err := r.figureSweep(ctx, gpus, pims, policies)
			return render("Fig. 6: MEM arrival rate at the MC, normalized to standalone", err,
				func() string { return s.ArrivalRates().Table(bothModes) })
		}},
	{ID: "8", Title: "fairness index and system throughput (Fig. 8)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
			s, err := r.figureSweep(ctx, gpus, pims, policies)
			return render("Fig. 8: fairness index and system throughput (avg and worst case)", err,
				func() string { return s.FairnessThroughput().Table(bothModes) })
		}},
	{ID: "10", Title: "mode switches and switch overheads (Fig. 10)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
			s, err := r.figureSweep(ctx, gpus, pims, policies)
			if err != nil {
				return "", err
			}
			so, err := s.SwitchOverheads()
			return render("Fig. 10: switches vs FCFS (geo-mean), conflicts/switch, drain/switch", err,
				func() string { return so.Table(bothModes) })
		}},
	{ID: "11", Title: "LLM speedup, QKV generation overlapped with attention (Fig. 11)",
		Run: func(ctx context.Context, r *Runner, _, _, policies []string) (string, error) {
			res, err := r.CollaborativeSweep(ctx, policies, bothModes)
			return render("Fig. 11: LLM speedup vs sequential QKV + MHA execution", err,
				func() string { return CollabTable(res) })
		}},
	{ID: "13", Title: "compute- vs memory-intensive extremes (Fig. 13)",
		QuickGPUs: []string{"G10", "G6", "G11", "G17", "G19"},
		Run: func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
			s, err := r.figureSweep(ctx, gpus, pims, policies)
			return render("Fig. 13 (VC1): intensity extremes", err, func() string {
				is := s.IntensitySlice()
				return is.Table(config.VC1) + "Fig. 13 (VC2): intensity extremes\n" + is.Table(config.VC2)
			})
		}},
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
