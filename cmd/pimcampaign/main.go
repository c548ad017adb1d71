// Command pimcampaign runs the paper's full evaluation campaign — every
// (GPU, PIM, policy, VC) combination — writing one JSON result file per
// combination. Progress is checkpointed in a journal (out/journal.jsonl),
// so an interrupted campaign resumes where it left off: Ctrl-C cancels
// cleanly mid-flight, and the next invocation re-runs only failed or
// missing combinations. This mirrors the paper's artifact, whose 3258
// GPGPU-Sim runs take two weeks and are managed the same way; here the
// scaled configuration finishes in minutes and the full Table I machine
// (-full) in hours.
//
// Usage:
//
//	pimcampaign -out campaign/ [-scale 0.2] [-full] [-parallel 8]
//	            [-policies f3fs,fr-rr-fcfs] [-gpus G1,G2] [-pims P1]
//	            [-faults seed=7,dram=0.002:12] [-run-timeout 10m]
//	            [-resume=false]
//
// A combination that panics or exceeds -run-timeout is quarantined: its
// structured error lands in <pair>.error.json, the rest of the campaign
// completes, and resuming retries it. Each result file is a
// report.PairRecord; `jq -s` over the directory reconstructs the full
// dataset.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	pimsim "repro"
	"repro/internal/profiling"
)

func main() {
	var (
		out       = flag.String("out", "campaign", "output directory (one JSON per combination)")
		scale     = flag.Float64("scale", 0.2, "workload scale factor")
		full      = flag.Bool("full", false, "use the full Table I configuration")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
		policies  = flag.String("policies", "", "comma-separated policy subset (default: all nine)")
		gpus      = flag.String("gpus", "", "comma-separated GPU kernel subset (default: all twenty)")
		pims      = flag.String("pims", "", "comma-separated PIM kernel subset (default: all nine)")
		faultsStr = flag.String("faults", "", "fault schedule, e.g. seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000")
		runTO     = flag.Duration("run-timeout", 0, "per-simulation wall-clock budget (0 = unbounded)")
		resume    = flag.Bool("resume", true, "resume from the journal; -resume=false starts fresh")
		haltAfter = flag.Int("halt-after", 0, "stop cleanly after N results (testing hook for resume)")
		telOut    = flag.String("telemetry-out", "", "write per-pair telemetry captures (JSONL) into this directory")
		pprofD    = flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	)
	flag.Parse()

	if *pprofD != "" {
		stop, err := profiling.Start(*pprofD)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "pimcampaign:", err)
			}
		}()
	}
	if *telOut != "" {
		pimsim.EnableTelemetry(true)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	cfg := pimsim.ScaledConfig()
	if *full {
		cfg = pimsim.PaperConfig()
	} else {
		cfg.MaxGPUCycles = 2_500_000
	}
	if *faultsStr != "" {
		fs, err := pimsim.ParseFaultSchedule(*faultsStr)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = fs
		fmt.Printf("campaign: fault schedule %s\n", fs)
	}

	journalPath := filepath.Join(*out, "journal.jsonl")
	if !*resume {
		if err := os.Remove(journalPath); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}
	journal, err := pimsim.OpenJournal(journalPath, cfg, *scale)
	if err != nil {
		fatal(err)
	}

	r := pimsim.NewRunner(cfg, *scale)
	r.Parallel = 1 // parallelism handled here, per combination
	r.TelemetryDir = *telOut
	r.RunTimeout = *runTO
	r.Journal = journal

	gpuIDs := pimsim.AllGPUKernels()
	if *gpus != "" {
		gpuIDs = strings.Split(*gpus, ",")
	}
	pimIDs := pimsim.AllPIMKernels()
	if *pims != "" {
		pimIDs = strings.Split(*pims, ",")
	}
	pols := pimsim.Policies()
	if *policies != "" {
		pols = strings.Split(*policies, ",")
	}
	modes := []pimsim.VCMode{pimsim.VC1, pimsim.VC2}

	// Ctrl-C / SIGTERM cancels in-flight simulations; the journal keeps
	// everything finished so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type job struct {
		gpu, pim, policy string
		mode             pimsim.VCMode
	}
	var jobs []job
	skipped := 0
	for _, mode := range modes {
		for _, policy := range pols {
			for _, g := range gpuIDs {
				for _, p := range pimIDs {
					if pair, ok := r.Journal.LookupDone(pimsim.PairKey(g, p, policy, mode)); ok {
						skipped++
						// Backfill a result file deleted out from under
						// the journal.
						path := resultPath(*out, g, p, policy, mode)
						if _, err := os.Stat(path); os.IsNotExist(err) {
							if err := writeResult(path, pair); err != nil {
								fatal(err)
							}
						}
						continue
					}
					jobs = append(jobs, job{g, p, policy, mode})
				}
			}
		}
	}
	fmt.Printf("campaign: %d combinations to run, %d already done\n", len(jobs), skipped)

	// Pre-warm the standalone baselines serially (shared cache).
	for _, g := range gpuIDs {
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		if _, err := r.StandaloneGPU(g); err != nil {
			fatal(err)
		}
	}
	for _, p := range pimIDs {
		if err := ctx.Err(); err != nil {
			fatal(err)
		}
		if _, err := r.StandalonePIM(p); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	haltCtx, halt := context.WithCancel(ctx)
	defer halt()
	var mu sync.Mutex
	var done, failed int
	halted := false
	sem := make(chan struct{}, max(1, *parallel))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			select {
			case <-haltCtx.Done():
				return
			case sem <- struct{}{}:
			}
			defer func() { <-sem }()
			pair, err := r.CompetitiveCtx(haltCtx, j.gpu, j.pim, j.policy, j.mode)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var re *pimsim.RunError
				if errors.As(err, &re) && re.Kind != "canceled" {
					// Quarantined: journaled as failed, error bundle on
					// disk, campaign goes on.
					failed++
					fmt.Fprintf(os.Stderr, "  FAIL %s x %s %s/%s: %v\n", j.gpu, j.pim, j.policy, j.mode, err)
					if werr := writeErrorFile(*out, j.gpu, j.pim, j.policy, j.mode, re); werr != nil {
						fmt.Fprintln(os.Stderr, "  error file:", werr)
					}
					return
				}
				if errors.Is(err, context.Canceled) || (re != nil && re.Kind == "canceled") {
					return // shutdown in progress; resume re-runs it
				}
				failed++
				fmt.Fprintf(os.Stderr, "  FAIL %s x %s %s/%s: %v\n", j.gpu, j.pim, j.policy, j.mode, err)
				return
			}
			if err := writeResult(resultPath(*out, j.gpu, j.pim, j.policy, j.mode), pair); err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "  write:", err)
				return
			}
			done++
			if done%50 == 0 {
				fmt.Printf("  %d/%d (%s)\n", done, len(jobs), time.Since(start).Round(time.Second))
			}
			if *haltAfter > 0 && done >= *haltAfter && !halted {
				halted = true
				fmt.Printf("campaign: halting after %d results (requested)\n", done)
				halt()
			}
		}(j)
	}
	wg.Wait()
	fmt.Printf("campaign complete: %d written, %d failed, %s\n", done, failed, time.Since(start).Round(time.Second))
	if halted {
		return // clean test-hook stop; journal holds progress
	}
	if err := ctx.Err(); err != nil {
		fmt.Println("campaign interrupted; rerun to resume from the journal")
		os.Exit(130)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func resultPath(dir, gpu, pim, policy string, mode pimsim.VCMode) string {
	return filepath.Join(dir, fmt.Sprintf("%s_%s_%s_%s.json", gpu, pim, policy, mode))
}

func writeResult(path string, pair pimsim.Pair) error {
	rec := pimsim.PairRecord{
		VC: pair.Mode.String(), Policy: pair.Policy, GPU: pair.GPUID, PIM: pair.PIMID,
		GPUSpeedup: pair.GPUSpeedup, PIMSpeedup: pair.PIMSpeedup,
		Fairness: pair.Fairness, Throughput: pair.Throughput,
		MemArrivalNorm: pair.MemArrivalNorm, Switches: pair.Switches,
		ConflictsPerSwitch: pair.ConflictsPerSwitch,
		DrainPerSwitch:     pair.DrainPerSwitch, Aborted: pair.Aborted,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return pimsim.WriteFileAtomic(path, data, 0o644)
}

func writeErrorFile(dir, gpu, pim, policy string, mode pimsim.VCMode, re *pimsim.RunError) error {
	data, err := json.MarshalIndent(re, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%s_%s_%s.error.json", gpu, pim, policy, mode)
	return pimsim.WriteFileAtomic(filepath.Join(dir, name), data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimcampaign:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
