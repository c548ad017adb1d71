package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

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
	// metrics, so the reductions below count it as starved.
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
			cells = append(cells, cross(gpuIDs, pimIDs, policy, mode, nil)...)
		}
	}
	var err error
	s.Cells, _, err = r.sweep(ctx, r.tasks(cells), s.Failed)
	return s, err
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

// Key addresses one value of a sweep reduction: a (mode, policy) series,
// or — with Kernel set — that series' value for one GPU or PIM kernel.
type Key struct {
	Mode   config.VCMode
	Policy string
	Kernel string
}

// metric extracts one plotted quantity from a pair; ok=false leaves the
// pair out of the average.
type metric func(Pair) (v float64, ok bool)

func fairness(p Pair) (float64, bool)   { return p.Fairness, true }
func throughput(p Pair) (float64, bool) { return p.Throughput, true }
func gpuSpeedup(p Pair) (float64, bool) { return p.GPUSpeedup, true }
func pimSpeedup(p Pair) (float64, bool) { return p.PIMSpeedup, true }

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
func (s *Sweep) reduce(by func(Pair) string, m metric, agg func([]float64) float64) map[Key]float64 {
	groups := map[Key][]float64{}
	var order []Key
	for _, p := range s.Cells {
		k := Key{p.Mode, p.Policy, by(p)}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
			groups[k] = nil
		}
		if v, ok := m(p); ok {
			groups[k] = append(groups[k], v)
		}
	}
	out := make(map[Key]float64, len(order))
	series := map[Key][]float64{}
	for _, k := range order {
		out[k] = agg(groups[k])
		if k.Kernel != "" {
			sk := Key{Mode: k.Mode, Policy: k.Policy}
			series[sk] = append(series[sk], out[k])
			out[sk] = stats.Mean(series[sk])
		}
	}
	return out
}

// seriesTable renders one row per policy and, per row, one cell per
// column key (the column's Policy is filled in from the row).
func seriesTable(policies []string, cols []Key, head, cell func(Key) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "policy")
	for _, c := range cols {
		b.WriteString(head(c))
	}
	b.WriteByte('\n')
	for _, p := range policies {
		fmt.Fprintf(&b, "%-14s", p)
		for _, c := range cols {
			c.Policy = p
			b.WriteString(cell(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func modeCols(modes []config.VCMode) []Key {
	cols := make([]Key, len(modes))
	for i, m := range modes {
		cols[i].Mode = m
	}
	return cols
}

// ArrivalRates reduces the sweep to Fig. 6: the MEM request arrival rate
// at the memory controller under contention, normalized to standalone.
type ArrivalRates struct {
	Policies []string
	// Norm holds, per (mode, policy, GPU kernel), the rate averaged
	// across PIM kernels, and under the bare (mode, policy) key the
	// average of those across GPU kernels.
	Norm map[Key]float64
}

// ArrivalRates computes the Fig. 6 reduction.
func (s *Sweep) ArrivalRates() *ArrivalRates {
	norm := func(p Pair) (float64, bool) { return p.MemArrivalNorm, true }
	return &ArrivalRates{s.Policies, s.reduce(byGPU, norm, stats.Mean)}
}

// Table renders Fig. 6's reduction.
func (a *ArrivalRates) Table(modes []config.VCMode) string {
	return seriesTable(a.Policies, modeCols(modes),
		func(k Key) string { return fmt.Sprintf(" %8s", k.Mode) },
		func(k Key) string { return fmt.Sprintf(" %8.3f", a.Norm[k]) })
}

// FairnessThroughput reduces the sweep to Fig. 8: the fairness index and
// system throughput of each policy.
type FairnessThroughput struct {
	Policies []string
	PIMIDs   []string
	// Fairness, Throughput and MemShare (the MEM fraction of throughput,
	// Fig. 8b's shading) hold, per (mode, policy, PIM kernel), the value
	// averaged across GPU kernels, and under the bare (mode, policy) key
	// the average of those across PIM kernels.
	Fairness, Throughput, MemShare map[Key]float64
	// WorstFairness and WorstThroughput are the per-(mode, policy)
	// minima across all combinations (the paper's worst-case comparison).
	WorstFairness, WorstThroughput map[Key]float64
}

// FairnessThroughput computes the Fig. 8 reduction.
func (s *Sweep) FairnessThroughput() *FairnessThroughput {
	return &FairnessThroughput{
		Policies:        s.Policies,
		PIMIDs:          s.PIMIDs,
		Fairness:        s.reduce(byPIM, fairness, stats.Mean),
		Throughput:      s.reduce(byPIM, throughput, stats.Mean),
		MemShare:        s.reduce(byPIM, memShare, stats.Mean),
		WorstFairness:   s.reduce(overAll, fairness, slices.Min[[]float64]),
		WorstThroughput: s.reduce(overAll, throughput, slices.Min[[]float64]),
	}
}

// Table renders the Fig. 8 averages.
func (f *FairnessThroughput) Table(modes []config.VCMode) string {
	return seriesTable(f.Policies, modeCols(modes),
		func(k Key) string {
			m := k.Mode.String()
			return fmt.Sprintf(" %8s %8s %9s %9s", "FI/"+m, "ST/"+m, "wFI/"+m, "wST/"+m)
		},
		func(k Key) string {
			return fmt.Sprintf(" %8.3f %8.3f %9.3f %9.3f", f.Fairness[k], f.Throughput[k], f.WorstFairness[k], f.WorstThroughput[k])
		})
}

// SwitchOverheads reduces the sweep to Fig. 10, per (mode, policy): the
// number of mode switches normalized to FCFS (geometric mean across
// combinations, Fig. 10a), the additional MEM conflicts per switch
// (Fig. 10b) and the MEM drain latency per switch in DRAM cycles
// (Fig. 10c), both arithmetic means.
type SwitchOverheads struct {
	Policies                         []string
	SwitchesVsFCFS, Conflicts, Drain map[Key]float64
}

// SwitchOverheads computes the Fig. 10 reduction. The sweep must include
// the "fcfs" policy for normalization.
func (s *Sweep) SwitchOverheads() (*SwitchOverheads, error) {
	if !slices.Contains(s.Policies, "fcfs") {
		return nil, fmt.Errorf("experiments: Fig. 10 normalization requires the fcfs policy in the sweep")
	}
	vsFCFS := func(p Pair) (float64, bool) {
		base := s.Pair(p.Mode, "fcfs", p.GPUID, p.PIMID).Switches
		return float64(p.Switches) / float64(base), base > 0
	}
	return &SwitchOverheads{
		Policies:       s.Policies,
		SwitchesVsFCFS: s.reduce(overAll, vsFCFS, stats.GeoMean),
		Conflicts:      s.reduce(overAll, func(p Pair) (float64, bool) { return p.ConflictsPerSwitch, true }, stats.Mean),
		Drain:          s.reduce(overAll, func(p Pair) (float64, bool) { return p.DrainPerSwitch, true }, stats.Mean),
	}, nil
}

// Table renders the Fig. 10 reduction.
func (o *SwitchOverheads) Table(modes []config.VCMode) string {
	return seriesTable(o.Policies, modeCols(modes),
		func(k Key) string {
			m := k.Mode.String()
			return fmt.Sprintf(" %10s %10s %10s", "sw/"+m, "conf/"+m, "drain/"+m)
		},
		func(k Key) string {
			return fmt.Sprintf(" %10.3f %10.2f %10.1f", o.SwitchesVsFCFS[k], o.Conflicts[k], o.Drain[k])
		})
}

// IntensitySlice reduces a sweep to Fig. 13, the orthogonal slice of
// Fig. 8: per (mode, policy, GPU kernel) — the paper uses the
// compute-intensive G10 and memory-intensive G6, G11, G17, G19 —
// fairness and throughput averaged across PIM kernels.
type IntensitySlice struct {
	Policies             []string
	GPUIDs               []string
	Fairness, Throughput map[Key]float64
}

// IntensitySlice computes the Fig. 13 reduction.
func (s *Sweep) IntensitySlice() *IntensitySlice {
	return &IntensitySlice{s.Policies, s.GPUIDs, s.reduce(byGPU, fairness, stats.Mean), s.reduce(byGPU, throughput, stats.Mean)}
}

// Table renders the Fig. 13 slice for one mode.
func (i *IntensitySlice) Table(mode config.VCMode) string {
	var cols []Key
	for _, g := range i.GPUIDs {
		cols = append(cols, Key{Mode: mode, Kernel: g})
	}
	slices.SortFunc(cols, func(a, b Key) int { return strings.Compare(a.Kernel, b.Kernel) })
	return seriesTable(i.Policies, cols,
		func(k Key) string { return fmt.Sprintf(" %7s-FI %7s-ST", k.Kernel, k.Kernel) },
		func(k Key) string { return fmt.Sprintf(" %10.3f %10.3f", i.Fairness[k], i.Throughput[k]) })
}
