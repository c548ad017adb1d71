// Command pimsweep regenerates the paper's figures and this repository's
// extension studies from the figure registry (internal/experiments):
//
//	-fig 4         memory access characterization (Fig. 4)
//	-fig 5         co-runner impact on the Rodinia suite (Fig. 5)
//	-fig 6         normalized MEM arrival rates per policy (Fig. 6)
//	-fig 8         fairness index and system throughput (Fig. 8)
//	-fig 10        mode switches and switch overheads (Fig. 10)
//	-fig 11        LLM speedup, QKV generation overlapped with attention (Fig. 11)
//	-fig 13        compute- vs memory-intensive extremes (Fig. 13)
//	-fig 14a       F3FS component ablation (Fig. 14a)
//	-fig 14b       interconnect queue size sensitivity (Fig. 14b)
//	-fig cap       F3FS CAP sensitivity (Sec. VII-B)
//	-fig bliss     BLISS blacklist threshold sweep (Sec. VI-A)
//	-fig priority  process priorities as asymmetric CAPs (Sec. VII future work)
//	-fig dual      NeuPIMs-style dual row buffer vs shared buffer (extension)
//	-fig energy    per-policy DRAM+PIM energy on identical work (extension)
//	-fig all       every figure above in that order; Figs. 6, 8 and 10 share one sweep
//
// By default a reduced kernel subset runs in seconds; -all sweeps the
// full 20 x 9 combination space and -full additionally uses the Table I
// configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	pimsim "repro"
	"repro/internal/profiling"
)

// figUsage is the -fig help text, generated from the registry.
func figUsage() string {
	var b strings.Builder
	b.WriteString("figure to regenerate:")
	for _, f := range pimsim.Figures() {
		fmt.Fprintf(&b, "\n  %-9s %s", f.ID, f.Title)
	}
	b.WriteString("\n  all       every figure above in that order")
	return b.String()
}

func main() {
	var (
		fig       = flag.String("fig", "8", figUsage())
		all       = flag.Bool("all", false, "sweep all 20 GPU x 9 PIM kernels")
		full      = flag.Bool("full", false, "use the full Table I configuration")
		scale     = flag.Float64("scale", 0.25, "workload scale factor")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
		policies  = flag.String("policies", "", "comma-separated policy subset (default: all nine)")
		faultsStr = flag.String("faults", "", "fault schedule, e.g. seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000")
		runTO     = flag.Duration("run-timeout", 0, "per-simulation wall-clock budget (0 = unbounded)")
		journalF  = flag.String("journal", "", "checkpoint competitive pairs in this journal file")
		resume    = flag.Bool("resume", true, "resume from the journal; -resume=false starts fresh")
		telOut    = flag.String("telemetry-out", "", "write per-pair telemetry captures (JSONL) into this directory")
		pprofD    = flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	)
	flag.Parse()

	figs := pimsim.Figures()
	if *fig != "all" {
		f, ok := pimsim.FigureByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "pimsweep: unknown figure %q\n", *fig)
			os.Exit(1)
		}
		figs = []pimsim.Figure{f}
	}

	if *pprofD != "" {
		stop, err := profiling.Start(*pprofD)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimsweep:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "pimsweep:", err)
			}
		}()
	}
	if *telOut != "" {
		pimsim.EnableTelemetry(true)
	}

	cfg := pimsim.ScaledConfig()
	if *full {
		cfg = pimsim.PaperConfig()
	} else {
		// Trickle-starved combinations otherwise run to the full cycle
		// budget; 2.5M cycles is plenty for a stable extrapolation at
		// quick-sweep scales.
		cfg.MaxGPUCycles = 2_500_000
	}
	if *faultsStr != "" {
		fs, err := pimsim.ParseFaultSchedule(*faultsStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimsweep:", err)
			os.Exit(1)
		}
		cfg.Faults = fs
		fmt.Printf("fault schedule: %s\n", fs)
	}
	r := pimsim.NewRunner(cfg, *scale)
	r.Parallel = *parallel
	r.TelemetryDir = *telOut
	r.RunTimeout = *runTO
	if *journalF != "" {
		if !*resume {
			if err := os.Remove(*journalF); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "pimsweep:", err)
				os.Exit(1)
			}
		}
		j, err := pimsim.OpenJournal(*journalF, cfg, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimsweep:", err)
			os.Exit(1)
		}
		r.Journal = j
	}

	pols := pimsim.Policies()
	if *policies != "" {
		pols = strings.Split(*policies, ",")
	}

	start := time.Now()
	for _, f := range figs {
		gpus, pims := f.Kernels(*all)
		text, err := f.Run(context.Background(), r, gpus, pims, pols)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimsweep:", err)
			os.Exit(1)
		}
		if *fig == "all" {
			fmt.Printf("=== FIG %s ===\n", f.ID)
		}
		fmt.Print(text)
	}
	// The timing trailer is the one output line starting with "(";
	// `make golden-figures` drops it before comparing.
	what := fmt.Sprintf("%d figures", len(figs))
	if *fig != "all" {
		gpus, pims := figs[0].Kernels(*all)
		what = fmt.Sprintf("%d GPU x %d PIM kernels", len(gpus), len(pims))
	}
	fmt.Printf("(%s, scale %.2f, %s)\n", what, *scale, time.Since(start).Round(time.Millisecond))
}
