package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// CollabResult is one policy's outcome in the Fig. 11 collaborative
// scenario.
type CollabResult struct {
	Policy string
	Mode   config.VCMode
	// Speedup is concurrent vs sequential execution of QKV generation
	// and multi-head attention.
	Speedup float64
	// Ideal is the perfect-overlap bound: sequential time over the
	// longer kernel's standalone time.
	Ideal float64
	// QKVCycles/MHACycles/ConcurrentCycles are the raw times.
	QKVCycles, MHACycles, ConcurrentCycles uint64
	// Aborted marks starved runs.
	Aborted bool
}

// collab reduces one collaborative cell's raw result against the stages'
// standalone baselines (cached by the sweep that ran the cell).
func (r *Runner) collab(ctx context.Context, c Cell, res *sim.Result) (CollabResult, error) {
	qkv, mha, err := r.baselines(ctx, c)
	if err != nil {
		return CollabResult{}, err
	}
	seq := qkv.Cycles + mha.Cycles
	out := CollabResult{
		Policy: c.Policy, Mode: c.Cfg.NoC.Mode,
		QKVCycles: qkv.Cycles, MHACycles: mha.Cycles, ConcurrentCycles: res.GPUCycles,
		Ideal:   float64(seq) / float64(max(qkv.Cycles, mha.Cycles)),
		Aborted: res.Aborted,
	}
	if res.Aborted {
		// A starved stage never finished; use the extrapolated finish
		// of the slower kernel when available.
		out.ConcurrentCycles = 0
		for _, k := range res.Kernels {
			if k.EstFinish == 0 {
				out.ConcurrentCycles = 0
				break
			}
			out.ConcurrentCycles = max(out.ConcurrentCycles, k.EstFinish)
		}
	}
	if out.ConcurrentCycles > 0 {
		out.Speedup = float64(seq) / float64(out.ConcurrentCycles)
	}
	return out, nil
}

// llmCell describes the Fig. 11 scenario under cfg: QKV generation on
// the GPU SMs overlapped with multi-head attention on the PIM SMs.
func llmCell(policy string, cfg config.Config) Cell {
	return Cell{GPU: LLMQKV, PIM: LLMMHA, Policy: policy, Cfg: cfg}
}

// Collaborative runs the Fig. 11 LLM scenario under one policy and VC
// mode. When memCap and pimCap are both positive they replace the
// runner's F3FS CAPs for this run, whatever the policy; only a policy
// that reads a cap uses it (core.ReadsCaps: f3fs both, mode-cap-fr-fcfs
// the MEM cap). The paper uses 256/128 under VC1 and 64/64 under VC2.
func (r *Runner) Collaborative(policy string, mode config.VCMode, memCap, pimCap int) (CollabResult, error) {
	cfg := r.at(mode)
	if memCap > 0 && pimCap > 0 {
		cfg.Sched.F3FSMemCap, cfg.Sched.F3FSPIMCap = memCap, pimCap
	}
	results, err := r.collabSweep(context.Background(), []Cell{llmCell(policy, cfg)})
	if err != nil {
		return CollabResult{}, err
	}
	return results[0], nil
}

func (r *Runner) collabSweep(ctx context.Context, cells []Cell) ([]CollabResult, error) {
	_, results, err := r.sweep(ctx, r.tasks(cells), nil)
	if err != nil {
		return nil, err
	}
	out := make([]CollabResult, len(cells))
	for i, c := range cells {
		if out[i], err = r.collab(ctx, c, results[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CollaborativeSweep runs Fig. 11 across policies and modes, applying
// F3FS CAPs tuned by this repository's own sensitivity study (512/512
// under VC1, 512/256 under VC2 — run `pim sweep -fig cap` to reproduce).
// The paper's absolute values (256/128 and 64/64) came from a sensitivity
// study on its GPGPU-Sim substrate; the tuning *principles* transfer
// (throughput favors high CAPs, and capping PIM below MEM favors the
// slower MEM-side kernel), the saturation points do not. See
// EXPERIMENTS.md.
func (r *Runner) CollaborativeSweep(ctx context.Context, policies []string, modes []config.VCMode) ([]CollabResult, error) {
	var cells []Cell
	for _, mode := range modes {
		for _, policy := range policies {
			cfg := r.at(mode)
			if policy == "f3fs" {
				cfg.Sched.F3FSMemCap, cfg.Sched.F3FSPIMCap = 512, 512
				if mode == config.VC2 {
					cfg.Sched.F3FSPIMCap = 256
				}
			}
			cells = append(cells, llmCell(policy, cfg))
		}
	}
	return r.collabSweep(ctx, cells)
}

// collabTable reduces Fig. 11's results to its table, one row per
// policy and mode.
func collabTable(results []CollabResult) *Table {
	t := newTable("Fig. 11: LLM speedup vs sequential QKV + MHA execution", fmt.Sprintf("%-18s %-4s", "policy", "vc"),
		col{"speedup", 8, 3}, col{"ideal", 8, 3})
	for _, res := range results {
		t.add(fmt.Sprintf("%-18s %-4s", res.Policy, res.Mode), res.Speedup, res.Ideal)
	}
	return t
}
