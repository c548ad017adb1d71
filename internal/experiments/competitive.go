package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/stats"
)

// Sweep is a full competitive sweep: every (GPU, PIM, policy, VC)
// combination's Pair metrics.
type Sweep struct {
	Policies []string
	Modes    []config.VCMode
	GPUIDs   []string
	PIMIDs   []string
	// Cells holds one Pair per combination, flat, in mode, policy, GPU,
	// PIM order. A failed combination keeps its identity with zero
	// metrics (a figure refuses such a sweep: Quarantined).
	Cells []Pair
	// Failed maps PairKey -> the structured failure of combinations that
	// panicked or timed out; the rest of the sweep still completes.
	Failed map[string]*RunError
}

// RunSweep executes the competitive cross product (Figs. 6, 8, 10, 13
// all reduce this sweep differently).
func (r *Runner) RunSweep(gpuIDs, pimIDs, policies []string, modes []config.VCMode) (*Sweep, error) {
	return r.RunSweepCtx(context.Background(), gpuIDs, pimIDs, policies, modes)
}

// RunSweepCtx is RunSweep under a campaign context. A combination that
// fails with a *RunError (panic, per-run timeout) is recorded in
// Sweep.Failed, and left out of the runner's Journal so a resume re-runs
// it, while the remaining combinations still run. Cancelling ctx stops
// the sweep and returns the partial Sweep alongside the context's error.
func (r *Runner) RunSweepCtx(ctx context.Context, gpuIDs, pimIDs, policies []string, modes []config.VCMode) (*Sweep, error) {
	s := &Sweep{Policies: policies, Modes: modes, GPUIDs: gpuIDs, PIMIDs: pimIDs, Failed: map[string]*RunError{}}
	var cells []Cell
	for _, mode := range modes {
		for _, policy := range policies {
			cells = append(cells, cross(gpuIDs, pimIDs, policy, r.at(mode))...)
		}
	}
	var err error
	s.Cells, _, err = r.sweep(ctx, r.tasks(cells), s.Failed)
	return s, err
}

// Quarantined returns the failure of the first combination the sweep
// quarantined, in sweep order, or nil. A figure needs every cell, so a
// sweep with one is refused rather than plotted with zero metrics.
func (s *Sweep) Quarantined() *RunError {
	for _, p := range s.Cells {
		if re := s.Failed[PairKey(p.GPUID, p.PIMID, p.Policy, p.Mode)]; re != nil {
			return re
		}
	}
	return nil
}

// Pair returns one combination's metrics (the zero Pair when the sweep
// does not hold it).
func (s *Sweep) Pair(mode config.VCMode, policy, gpuID, pimID string) Pair {
	for _, p := range s.Cells {
		if p.Mode == mode && p.Policy == policy && p.GPUID == gpuID && p.PIMID == pimID {
			return p
		}
	}
	return Pair{}
}

// key addresses one value of a sweep reduction: a (mode, policy) series,
// or — with Kernel set — that series' value for one GPU or PIM kernel.
type key struct {
	Mode   config.VCMode
	Policy string
	Kernel string
}

// metric extracts one plotted quantity from a pair; ok=false leaves the
// pair out of the average.
type metric func(Pair) (v float64, ok bool)

func fairness(p Pair) (float64, bool)   { return p.Fairness, true }
func throughput(p Pair) (float64, bool) { return p.Throughput, true }

// memShare is the MEM fraction of throughput (Fig. 8b's shading).
func memShare(p Pair) (float64, bool) { return p.GPUSpeedup / p.Throughput, p.Throughput > 0 }

// mean averages m over pairs in slice order.
func mean(pairs []Pair, m metric) float64 {
	var xs []float64
	for _, p := range pairs {
		if v, ok := m(p); ok {
			xs = append(xs, v)
		}
	}
	return stats.Mean(xs)
}

// Grouping axes of reduce.
func byGPU(p Pair) string { return p.GPUID }
func byPIM(p Pair) string { return p.PIMID }
func overAll(Pair) string { return "" }

// reduce is the one group-by behind Figs. 6, 8, 10 and 13. It groups the
// flat pair slice by (mode, policy, by(pair)) and aggregates m over each
// group with agg; when the groups are per kernel, the bare (mode,
// policy) key additionally holds the mean of its kernels' values — the
// paper's per-kernel bars and their "avg" bar. Every sum runs in sweep
// order, so the values are reproducible bit for bit.
func (s *Sweep) reduce(by func(Pair) string, m metric, agg func([]float64) float64) map[key]float64 {
	groups := map[key][]float64{}
	var order []key
	for _, p := range s.Cells {
		k := key{p.Mode, p.Policy, by(p)}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
			groups[k] = nil
		}
		if v, ok := m(p); ok {
			groups[k] = append(groups[k], v)
		}
	}
	out := make(map[key]float64, len(order))
	series := map[key][]float64{}
	for _, k := range order {
		out[k] = agg(groups[k])
		if k.Kernel != "" {
			sk := key{Mode: k.Mode, Policy: k.Policy}
			series[sk] = append(series[sk], out[k])
			out[sk] = stats.Mean(series[sk])
		}
	}
	return out
}

// sweepCol is one column of a sweep figure's table: the reduction it
// reads, at the row's policy and the column's own mode and kernel.
type sweepCol struct {
	col
	at key
	of map[key]float64
}

// policyTable makes a sweep figure's table: one row per policy of the
// sweep, one value per column.
func (s *Sweep) policyTable(heading string, cols []sweepCol) *Table {
	spec := make([]col, len(cols))
	for j, c := range cols {
		spec[j] = c.col
	}
	t := newTable(heading, fmt.Sprintf("%-14s", "policy"), spec...)
	for _, p := range s.Policies {
		row := make([]float64, len(cols))
		for j, c := range cols {
			k := c.at
			k.Policy = p
			row[j] = c.of[k]
		}
		t.add(p, row...)
	}
	return t
}

// arrivalRates reduces the sweep to Fig. 6: the MEM request arrival rate
// at the memory controller under contention, normalized to standalone,
// averaged across PIM kernels per GPU kernel and then across GPU
// kernels.
func (s *Sweep) arrivalRates() ([]*Table, error) {
	norm := s.reduce(byGPU, func(p Pair) (float64, bool) { return p.MemArrivalNorm, true }, stats.Mean)
	var cols []sweepCol
	for _, m := range s.Modes {
		cols = append(cols, sweepCol{col{m.String(), 8, 3}, key{Mode: m}, norm})
	}
	return []*Table{s.policyTable("Fig. 6: MEM arrival rate at the MC, normalized to standalone", cols)}, nil
}

// fairnessThroughput reduces the sweep to Fig. 8: the fairness index and
// system throughput of each policy, averaged across GPU kernels per PIM
// kernel and then across PIM kernels, and their minima across all
// combinations (the paper's worst-case comparison).
func (s *Sweep) fairnessThroughput() ([]*Table, error) {
	fi, st := s.reduce(byPIM, fairness, stats.Mean), s.reduce(byPIM, throughput, stats.Mean)
	wfi, wst := s.reduce(overAll, fairness, slices.Min[[]float64]), s.reduce(overAll, throughput, slices.Min[[]float64])
	var cols []sweepCol
	for _, m := range s.Modes {
		k, v := key{Mode: m}, "/"+m.String()
		cols = append(cols, sweepCol{col{"FI" + v, 8, 3}, k, fi}, sweepCol{col{"ST" + v, 8, 3}, k, st},
			sweepCol{col{"wFI" + v, 9, 3}, k, wfi}, sweepCol{col{"wST" + v, 9, 3}, k, wst})
	}
	return []*Table{s.policyTable("Fig. 8: fairness index and system throughput (avg and worst case)", cols)}, nil
}

// switchOverheads reduces the sweep to Fig. 10, per (mode, policy): the
// number of mode switches normalized to FCFS (geometric mean across
// combinations, Fig. 10a), the additional MEM conflicts per switch
// (Fig. 10b) and the MEM drain latency per switch in DRAM cycles
// (Fig. 10c), both arithmetic means. The sweep must include the "fcfs"
// policy for normalization.
func (s *Sweep) switchOverheads() ([]*Table, error) {
	if !slices.Contains(s.Policies, "fcfs") {
		return nil, fmt.Errorf("experiments: Fig. 10 normalization requires the fcfs policy in the sweep")
	}
	vsFCFS := func(p Pair) (float64, bool) {
		base := s.Pair(p.Mode, "fcfs", p.GPUID, p.PIMID).Switches
		return float64(p.Switches) / float64(base), base > 0
	}
	sw := s.reduce(overAll, vsFCFS, stats.GeoMean)
	conf := s.reduce(overAll, func(p Pair) (float64, bool) { return p.ConflictsPerSwitch, true }, stats.Mean)
	drain := s.reduce(overAll, func(p Pair) (float64, bool) { return p.DrainPerSwitch, true }, stats.Mean)
	var cols []sweepCol
	for _, m := range s.Modes {
		k, v := key{Mode: m}, "/"+m.String()
		cols = append(cols, sweepCol{col{"sw" + v, 10, 3}, k, sw}, sweepCol{col{"conf" + v, 10, 2}, k, conf},
			sweepCol{col{"drain" + v, 10, 1}, k, drain})
	}
	return []*Table{s.policyTable("Fig. 10: switches vs FCFS (geo-mean), conflicts/switch, drain/switch", cols)}, nil
}

// intensitySlice reduces the sweep to Fig. 13, the orthogonal slice of
// Fig. 8, one table per mode: per (policy, GPU kernel) — the paper uses
// the compute-intensive G10 and memory-intensive G6, G11, G17, G19 —
// fairness and throughput averaged across PIM kernels.
func (s *Sweep) intensitySlice() ([]*Table, error) {
	fi, st := s.reduce(byGPU, fairness, stats.Mean), s.reduce(byGPU, throughput, stats.Mean)
	gpus := slices.Clone(s.GPUIDs)
	slices.Sort(gpus)
	var tabs []*Table
	for _, m := range s.Modes {
		var cols []sweepCol
		for _, g := range gpus {
			k := key{Mode: m, Kernel: g}
			cols = append(cols, sweepCol{col{g + "-FI", 10, 3}, k, fi}, sweepCol{col{g + "-ST", 10, 3}, k, st})
		}
		tabs = append(tabs, s.policyTable(fmt.Sprintf("Fig. 13 (%s): intensity extremes", m), cols))
	}
	return tabs, nil
}
