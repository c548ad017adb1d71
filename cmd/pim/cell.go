package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// cell runs the cell group's combination through the Runner — the one
// path run, trace and timeline share — with observe, when given,
// applied to the contended System right before it runs, and writes the
// -telemetry-out capture.
func (o *options) cell(ctx context.Context, r *experiments.Runner, observe func(*sim.System)) (experiments.Pair, error) {
	if observe != nil {
		r.Observe = func(what string, sys *sim.System) {
			if what == experiments.KindCompetitive {
				observe(sys)
			}
		}
	}
	pair, err := r.CompetitiveCtx(ctx, o.gpu, o.pim, o.policy, o.mode())
	if err != nil || o.telemetryOut == "" {
		return pair, err
	}
	return pair, telemetry.WriteJSONLFile(o.telemetryOut, pair.Manifest, pair.Telemetry.Metrics(), pair.Telemetry.Sampler.Snapshots())
}

func runCell(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	pair, err := o.cell(ctx, r, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "combination     : %s x %s\n", pair.GPUID, pair.PIMID)
	fmt.Fprintf(stdout, "policy / vc     : %s / %s\n", pair.Policy, pair.Mode)
	fmt.Fprintf(stdout, "GPU speedup     : %.3f\n", pair.GPUSpeedup)
	fmt.Fprintf(stdout, "PIM speedup     : %.3f\n", pair.PIMSpeedup)
	fmt.Fprintf(stdout, "fairness index  : %.3f\n", pair.Fairness)
	fmt.Fprintf(stdout, "sys throughput  : %.3f\n", pair.Throughput)
	fmt.Fprintf(stdout, "MEM arrival norm: %.3f\n", pair.MemArrivalNorm)
	fmt.Fprintf(stdout, "mode switches   : %d\n", pair.Switches)
	fmt.Fprintf(stdout, "avg queue occ   : MEM %.1f / PIM %.1f\n", pair.AvgMemQ, pair.AvgPIMQ)
	fmt.Fprintf(stdout, "conflicts/switch: %.2f\n", pair.ConflictsPerSwitch)
	fmt.Fprintf(stdout, "drain/switch    : %.1f DRAM cycles\n", pair.DrainPerSwitch)
	if pair.Aborted {
		fmt.Fprintln(stdout, "NOTE: run aborted (starvation); partial progress extrapolated")
	}
	if fc := pair.Faults; fc != nil {
		fmt.Fprintf(stdout, "faults injected : %d DRAM retries (%d cycles), %d NoC stalls (%d cycles), %d throttled cycles\n",
			fc.DRAMRetries, fc.DRAMRetryCycles, fc.NoCLinkStalls, fc.NoCLinkStallCycles, fc.ThrottledCycles)
	}
	fmt.Fprintf(stdout, "manifest        : %s\n", pair.Manifest.Summary())
	if o.telemetryOut != "" {
		fmt.Fprintf(stdout, "telemetry       : %s\n", o.telemetryOut)
	}
	return nil
}

func runTrace(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	if o.channel < 0 || o.channel >= r.Cfg.Memory.Channels {
		return fmt.Errorf("channel %d out of range [0,%d)", o.channel, r.Cfg.Memory.Channels)
	}
	if o.events < 1 {
		return fmt.Errorf("-events %d: want at least 1", o.events)
	}
	ring := trace.NewRing(o.channel, o.events)
	pair, err := o.cell(ctx, r, func(sys *sim.System) { sys.SetSink(ring) })
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %s x %s, %s, %s, channel %d — last %d events of %d GPU cycles\n",
		o.gpu, o.pim, o.policy, pair.Mode, o.channel, ring.Len(), pair.Manifest.GPUCycles)
	fmt.Fprint(stdout, ring.Dump())
	fmt.Fprintln(stdout, "# event totals:")
	var totals [trace.NumKinds]int
	for _, e := range ring.Events() {
		totals[e.Kind]++
	}
	for kind, n := range totals {
		if n > 0 {
			fmt.Fprintf(stdout, "#   %-13s %d\n", trace.Kind(kind), n)
		}
	}
	return nil
}

func runTimeline(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	if o.in != "" {
		return renderCapture(stdout, o.in)
	}
	pair, err := o.cell(ctx, r, func(sys *sim.System) { sys.EnableTelemetry(o.interval, 0) })
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %s x %s under %s / %s\n", o.gpu, o.pim, o.policy, pair.Mode)
	renderTimeline(stdout, pair.Manifest, pair.Telemetry.Sampler.Snapshots())
	return nil
}

// renderCapture renders a JSONL capture written by -telemetry-out.
func renderCapture(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, _, samples, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: capture holds no samples", path)
	}
	renderTimeline(stdout, m, samples)
	return nil
}

// renderTimeline prints the timeline CSV: cycle, per-app service rate
// (requests per kcycle, from adjacent samples' cumulative completions),
// cumulative switches, channel-averaged MEM/PIM queue occupancy.
func renderTimeline(stdout io.Writer, m *telemetry.Manifest, samples []telemetry.Snapshot) {
	if m != nil {
		fmt.Fprintf(stdout, "# %s\n", m.Summary())
	}
	fmt.Fprintln(stdout, "cycle,mem_rate,pim_rate,switches,memq,pimq")
	var prev telemetry.Snapshot
	for i, s := range samples {
		dt := float64(s.GPUCycle)
		if i > 0 {
			dt = float64(s.GPUCycle - prev.GPUCycle)
		}
		var rates [2]float64
		for app := 0; app < len(s.Apps) && app < 2; app++ {
			done := s.Apps[app].Completed
			if i > 0 {
				done -= prev.Apps[app].Completed
			}
			if dt > 0 {
				rates[app] = 1000 * float64(done) / dt
			}
		}
		var switches uint64
		var memQ, pimQ float64
		for _, ch := range s.Channels {
			switches += ch.Switches
			memQ += float64(ch.MemQ)
			pimQ += float64(ch.PIMQ)
		}
		if n := float64(len(s.Channels)); n > 0 {
			memQ /= n
			pimQ /= n
		}
		fmt.Fprintf(stdout, "%d,%.2f,%.2f,%d,%.1f,%.1f\n",
			s.GPUCycle, rates[0], rates[1], switches, memQ, pimQ)
		prev = s
	}
}
