// Command pimrun simulates a single GPU/PIM kernel combination under one
// scheduling policy and interconnect configuration and prints the
// resulting metrics.
//
// Usage:
//
//	pimrun -gpu G8 -pim P1 -policy f3fs -vc 2 [-scale 0.25] [-full]
//
// -full selects the paper's full Table I configuration (32 channels, 80
// SMs) instead of the laptop-scale default.
package main

import (
	"flag"
	"fmt"
	"os"

	pimsim "repro"
	"repro/internal/profiling"
)

func main() {
	var (
		gpuID     = flag.String("gpu", "G8", "GPU kernel (G1..G20 or name)")
		pimID     = flag.String("pim", "P1", "PIM kernel (P1..P9 or name)")
		policy    = flag.String("policy", "f3fs", "scheduling policy")
		vc        = flag.Int("vc", 1, "interconnect config: 1 (shared) or 2 (split)")
		scale     = flag.Float64("scale", 0.25, "workload scale factor")
		full      = flag.Bool("full", false, "use the full Table I configuration")
		memCap    = flag.Int("mem-cap", 0, "F3FS MEM CAP override")
		pimCap    = flag.Int("pim-cap", 0, "F3FS PIM CAP override")
		faultsStr = flag.String("faults", "", "fault schedule, e.g. seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000")
		runTO     = flag.Duration("run-timeout", 0, "per-simulation wall-clock budget (0 = unbounded)")
		telOut    = flag.String("telemetry-out", "", "write the run's telemetry capture (JSONL) to this file")
		pprofD    = flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	)
	flag.Parse()

	if *pprofD != "" {
		stop, err := profiling.Start(*pprofD)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimrun:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "pimrun:", err)
			}
		}()
	}
	if *telOut != "" {
		pimsim.EnableTelemetry(true)
	}

	cfg := pimsim.ScaledConfig()
	if *full {
		cfg = pimsim.PaperConfig()
	}
	if *memCap > 0 {
		cfg.Sched.F3FSMemCap = *memCap
	}
	if *pimCap > 0 {
		cfg.Sched.F3FSPIMCap = *pimCap
	}
	if *faultsStr != "" {
		fs, err := pimsim.ParseFaultSchedule(*faultsStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimrun:", err)
			os.Exit(1)
		}
		cfg.Faults = fs
	}
	mode := pimsim.VC1
	if *vc == 2 {
		mode = pimsim.VC2
	}

	r := pimsim.NewRunner(cfg, *scale)
	r.RunTimeout = *runTO
	pair, err := r.Competitive(*gpuID, *pimID, *policy, mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimrun:", err)
		os.Exit(1)
	}
	fmt.Printf("combination     : %s x %s\n", pair.GPUID, pair.PIMID)
	fmt.Printf("policy / vc     : %s / %s\n", pair.Policy, pair.Mode)
	fmt.Printf("GPU speedup     : %.3f\n", pair.GPUSpeedup)
	fmt.Printf("PIM speedup     : %.3f\n", pair.PIMSpeedup)
	fmt.Printf("fairness index  : %.3f\n", pair.Fairness)
	fmt.Printf("sys throughput  : %.3f\n", pair.Throughput)
	fmt.Printf("MEM arrival norm: %.3f\n", pair.MemArrivalNorm)
	fmt.Printf("mode switches   : %d\n", pair.Switches)
	fmt.Printf("avg queue occ   : MEM %.1f / PIM %.1f\n", pair.AvgMemQ, pair.AvgPIMQ)
	fmt.Printf("conflicts/switch: %.2f\n", pair.ConflictsPerSwitch)
	fmt.Printf("drain/switch    : %.1f DRAM cycles\n", pair.DrainPerSwitch)
	if pair.Aborted {
		fmt.Println("NOTE: run aborted (starvation); partial progress extrapolated")
	}
	if fc := pair.Faults; fc != nil {
		fmt.Printf("faults injected : %d DRAM retries (%d cycles), %d NoC stalls (%d cycles), %d throttled cycles\n",
			fc.DRAMRetries, fc.DRAMRetryCycles, fc.NoCLinkStalls, fc.NoCLinkStallCycles, fc.ThrottledCycles)
	}
	if pair.Manifest != nil {
		fmt.Printf("manifest        : %s\n", pair.Manifest.Summary())
	}
	if *telOut != "" {
		if err := writeTelemetry(*telOut, pair); err != nil {
			fmt.Fprintln(os.Stderr, "pimrun:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry       : %s\n", *telOut)
	}
}

func writeTelemetry(path string, pair pimsim.Pair) error {
	if pair.Telemetry == nil {
		return fmt.Errorf("no telemetry collected")
	}
	return pimsim.WriteTelemetryFile(path, pair.Manifest, pair.Telemetry.Registry, pair.Telemetry.Sampler.Snapshots())
}
