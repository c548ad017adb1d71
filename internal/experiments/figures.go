package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
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
	{ID: "14a", Title: "F3FS component ablation (Fig. 14a)",
		Run: func(ctx context.Context, r *Runner, gpus, _, _ []string) (string, error) {
			stages, err := r.Ablation(ctx, gpus, "P2")
			return render("Fig. 14a: F3FS component ablation (VC2, P2 + LLM)", err,
				func() string { return AblationTable(stages) })
		}},
	{ID: "14b", Title: "interconnect queue size sensitivity (Fig. 14b)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			pts, err := r.QueueSensitivity(ctx, gpus, pims, []int{256, 512, 1024})
			return render("Fig. 14b: F3FS sensitivity to interconnect queue size (VC2)", err,
				func() string { return QueueTable(pts) })
		}},
	{ID: "cap", Title: "F3FS CAP sensitivity (Sec. VII-B)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			pts, err := r.CapSensitivity(ctx, gpus, pims, []int{32, 64, 128, 256, 512}, config.VC2)
			return render("F3FS CAP sensitivity (VC2, symmetric caps)", err,
				func() string { return CapTable(pts) })
		}},
	{ID: "bliss", Title: "BLISS blacklist threshold sweep (Sec. VI-A)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			pts, err := r.BlissSweep(ctx, gpus, pims, []int{2, 4, 8, 16}, config.VC1)
			return render("BLISS blacklist threshold sweep (VC1)", err,
				func() string { return BlissTable(pts) })
		}},
	{ID: "priority", Title: "process priorities as asymmetric CAPs (Sec. VII future work)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			pts, err := r.PrioritySweep(ctx, gpus, pims, [][2]int{{1, 4}, {1, 2}, {1, 1}, {2, 1}, {4, 1}}, 512, config.VC2)
			return render("Process priorities as asymmetric F3FS CAPs (Sec. VII future work, VC2)", err,
				func() string { return PriorityTable(pts) })
		}},
	{ID: "dual", Title: "NeuPIMs-style dual row buffer vs shared buffer (extension)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, _ []string) (string, error) {
			pts, err := r.DualBufferAblation(ctx, gpus[0], pims[0], []string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"}, config.VC2)
			return render(fmt.Sprintf("NeuPIMs-style dual row buffer vs shared buffer on %s x %s (extension; VC2)", gpus[0], pims[0]), err,
				func() string { return DualBufferTable(pts) })
		}},
	{ID: "energy", Title: "per-policy DRAM+PIM energy on identical work (extension)",
		Run: func(ctx context.Context, r *Runner, gpus, pims, policies []string) (string, error) {
			pts, err := r.EnergySweep(ctx, gpus[0], pims[0], policies, config.VC2, energy.DefaultHBM())
			return render(fmt.Sprintf("Energy per policy on %s x %s (extension; VC2, HBM-class coefficients)", gpus[0], pims[0]), err,
				func() string { return EnergyTable(pts) })
		}},
}
