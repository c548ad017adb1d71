// Package report renders experiment results into machine-readable CSV
// and self-contained SVG bar charts — the reproduction's analogue of the
// paper artifact's matplotlib scripts, built on the standard library
// only.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// csvEscape quotes a field when needed.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func csvRow(fields ...string) string {
	escaped := make([]string, len(fields))
	for i, f := range fields {
		escaped[i] = csvEscape(f)
	}
	return strings.Join(escaped, ",") + "\n"
}

// SweepCSV flattens a competitive sweep into one CSV row per
// (mode, policy, gpu, pim) combination.
func SweepCSV(s *experiments.Sweep) string {
	var b strings.Builder
	b.WriteString(csvRow("vc", "policy", "gpu", "pim",
		"gpu_speedup", "pim_speedup", "fairness", "throughput",
		"mem_arrival_norm", "switches", "conflicts_per_switch", "drain_per_switch", "avg_memq", "avg_pimq", "aborted"))
	for _, pair := range s.Cells {
		b.WriteString(csvRow(
			pair.Mode.String(), pair.Policy, pair.GPUID, pair.PIMID,
			fmt.Sprintf("%.6f", pair.GPUSpeedup),
			fmt.Sprintf("%.6f", pair.PIMSpeedup),
			fmt.Sprintf("%.6f", pair.Fairness),
			fmt.Sprintf("%.6f", pair.Throughput),
			fmt.Sprintf("%.6f", pair.MemArrivalNorm),
			fmt.Sprintf("%d", pair.Switches),
			fmt.Sprintf("%.4f", pair.ConflictsPerSwitch),
			fmt.Sprintf("%.2f", pair.DrainPerSwitch),
			fmt.Sprintf("%.4f", pair.AvgMemQ),
			fmt.Sprintf("%.4f", pair.AvgPIMQ),
			fmt.Sprintf("%v", pair.Aborted),
		))
	}
	return b.String()
}

// CollabCSV flattens Fig. 11 results.
func CollabCSV(results []experiments.CollabResult) string {
	var b strings.Builder
	b.WriteString(csvRow("vc", "policy", "speedup", "ideal", "qkv_cycles", "mha_cycles", "concurrent_cycles", "aborted"))
	for _, r := range results {
		b.WriteString(csvRow(
			r.Mode.String(), r.Policy,
			fmt.Sprintf("%.6f", r.Speedup),
			fmt.Sprintf("%.6f", r.Ideal),
			fmt.Sprintf("%d", r.QKVCycles),
			fmt.Sprintf("%d", r.MHACycles),
			fmt.Sprintf("%d", r.ConcurrentCycles),
			fmt.Sprintf("%v", r.Aborted),
		))
	}
	return b.String()
}

// CharacterizationCSV flattens Fig. 4 per-kernel measurements.
func CharacterizationCSV(c *experiments.Characterization) string {
	var b strings.Builder
	b.WriteString(csvRow("group", "kernel", "noc_rate", "mc_rate", "blp", "rbhr", "cycles"))
	groups := make([]string, 0, len(c.PerKernel))
	for g := range c.PerKernel {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		kernels := make([]string, 0, len(c.PerKernel[g]))
		for k := range c.PerKernel[g] {
			kernels = append(kernels, k)
		}
		sort.Strings(kernels)
		for _, k := range kernels {
			s := c.PerKernel[g][k]
			b.WriteString(csvRow(g, k,
				fmt.Sprintf("%.4f", s.NoCRate),
				fmt.Sprintf("%.4f", s.MCRate),
				fmt.Sprintf("%.4f", s.BLP),
				fmt.Sprintf("%.4f", s.RBHR),
				fmt.Sprintf("%d", s.Cycles),
			))
		}
	}
	return b.String()
}

// FairnessThroughputBars builds the Fig. 8-style grouped bar chart from
// Fig. 8's table: one group per policy, one bar per FI and ST column
// (one of each per mode).
func FairnessThroughputBars(t *experiments.Table) BarChart {
	chart := BarChart{
		Title:  "Fairness index and system throughput by policy (Fig. 8)",
		YLabel: "index / speedup sum",
	}
	for i, policy := range t.Points {
		g := BarGroup{Label: policy}
		for j, name := range t.Names {
			if strings.HasPrefix(name, "FI/") || strings.HasPrefix(name, "ST/") {
				g.Bars = append(g.Bars, Bar{Label: name, Value: t.Rows[i][j]})
			}
		}
		chart.Groups = append(chart.Groups, g)
	}
	return chart
}

// CollabBars builds the Fig. 11-style chart.
func CollabBars(results []experiments.CollabResult) BarChart {
	chart := BarChart{
		Title:  "LLM speedup vs sequential execution (Fig. 11)",
		YLabel: "speedup",
	}
	byPolicy := map[string]*BarGroup{}
	var order []string
	for _, r := range results {
		g, ok := byPolicy[r.Policy]
		if !ok {
			order = append(order, r.Policy)
			g = &BarGroup{Label: r.Policy}
			byPolicy[r.Policy] = g
		}
		g.Bars = append(g.Bars, Bar{Label: r.Mode.String(), Value: r.Speedup})
	}
	for _, p := range order {
		chart.Groups = append(chart.Groups, *byPolicy[p])
	}
	return chart
}
