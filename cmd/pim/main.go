// Command pim is the simulator's command line. Every subcommand is a
// view over one experiments.Runner built by one function (setup), so a
// flag means the same thing everywhere it is accepted:
//
//	pim run       one GPU x PIM x policy x VC combination, metrics as text
//	pim sweep     the paper's figures and this repository's studies (-fig)
//	pim campaign  every combination, one JSON per pair, resumable (-out)
//	pim trace     one channel's controller event trace (Figs. 9 and 12)
//	pim timeline  time-resolved service rates and queues (Fig. 7), live or -in
//	pim plot      CSV + JSON + SVG of Figs. 4, 8 and 11 (-out)
//
// Flags come in three shared groups plus each subcommand's own. The cell
// group (run, trace, timeline) is -gpu -pim -policy -vc -mem-cap
// -pim-cap. The run group (every subcommand) is -scale, -full (the Table
// I machine: 32 channels, 80 SMs), -faults, -run-timeout, -telemetry-out
// (a JSONL file for one cell, a directory of per-pair files for many)
// and -pprof. The sweep group (sweep, campaign, plot) is -all (all 20 x
// 9 kernels instead of the quick subset; campaign defaults to it),
// -parallel, -policies, -journal and -resume: finished pairs are
// checkpointed in the journal, so an interrupted invocation — Ctrl-C
// cancels cleanly — re-runs only what is missing or failed.
//
// pim sweep regenerates from the figure registry (internal/experiments):
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
//	-fig dual      NeuPIMs-style dual row buffer vs shared buffer (extension)
//	-fig all       every figure above in that order; Figs. 6, 8 and 10 share one sweep
//
// pim campaign mirrors the paper's artifact, whose 3258 GPGPU-Sim runs
// take two weeks and are managed the same way. It is the journaled
// competitive sweep (the journal defaults to <out>/journal.jsonl, and
// its line count is the progress indicator) followed by an export that
// writes every per-pair file that is absent or differs. A combination
// that panics or exceeds -run-timeout is quarantined: its structured
// error lands in <pair>.error.json, the rest of the campaign completes,
// and the next invocation retries it. A pair keeps one file, the result
// or the error of its latest run. Each result file is a
// report.PairRecord; `jq -s` over the directory reconstructs the full
// dataset.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// options holds every flag of every subcommand; a subcommand's table
// entry pre-fills the defaults that differ between subcommands.
type options struct {
	// Cell group.
	gpu, pim, policy   string
	vc, memCap, pimCap int
	// Run group.
	scale               float64
	full                bool
	faults              string
	runTimeout          time.Duration
	telemetryOut, pprof string
	// Sweep group.
	all               bool
	parallel          int
	policies, journal string
	resume            bool
	// The subcommands' own.
	fig, out, gpus, pims, in string
	channel, events          int
	interval                 uint64
}

func (o *options) cellFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.gpu, "gpu", "G8", "GPU kernel (G1..G20 or name)")
	fs.StringVar(&o.pim, "pim", "P1", "PIM kernel (P1..P9 or name)")
	fs.StringVar(&o.policy, "policy", o.policy, "scheduling policy")
	fs.IntVar(&o.vc, "vc", o.vc, "interconnect config: 1 (shared) or 2 (split)")
	fs.IntVar(&o.memCap, "mem-cap", 0, "F3FS MEM CAP override")
	fs.IntVar(&o.pimCap, "pim-cap", 0, "F3FS PIM CAP override")
}

func (o *options) runFlags(fs *flag.FlagSet) {
	fs.Float64Var(&o.scale, "scale", o.scale, "workload scale factor")
	fs.BoolVar(&o.full, "full", false, "use the full Table I configuration")
	fs.StringVar(&o.faults, "faults", "", "fault schedule, e.g. seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000")
	fs.DurationVar(&o.runTimeout, "run-timeout", 0, "per-simulation wall-clock budget (0 = unbounded)")
	fs.StringVar(&o.telemetryOut, "telemetry-out", "", "write telemetry captures (JSONL): a file for one cell, a directory of per-pair files for many")
	fs.StringVar(&o.pprof, "pprof", "", "capture cpu.pprof and heap.pprof into this directory")
}

func (o *options) sweepFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.all, "all", o.all, "sweep all 20 GPU x 9 PIM kernels instead of the quick subset")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "concurrent simulations")
	fs.StringVar(&o.policies, "policies", "", "comma-separated policy subset (default: all nine)")
	fs.StringVar(&o.journal, "journal", "", "checkpoint competitive pairs in this journal file")
	fs.BoolVar(&o.resume, "resume", true, "resume from the journal; -resume=false starts fresh")
}

func (o *options) outFlag(fs *flag.FlagSet) {
	fs.StringVar(&o.out, "out", o.out, "output directory")
}

// command is one subcommand: its defaults, the flag groups it takes
// beside the run group, its own flags, and its body, which gets the
// Runner setup built and writes results to stdout.
type command struct {
	name, summary string
	defaults      options
	cell, sweep   bool
	own           func(o *options, fs *flag.FlagSet)
	run           func(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error
}

var commands = []command{
	{name: "run", summary: "simulate one GPU x PIM x policy x VC combination and print its metrics",
		defaults: options{scale: 0.25, policy: "f3fs", vc: 1}, cell: true, run: runCell},
	{name: "sweep", summary: "regenerate a figure or study of the registry (-fig <id>|all)",
		defaults: options{scale: 0.25}, sweep: true, run: runSweep,
		own: func(o *options, fs *flag.FlagSet) { fs.StringVar(&o.fig, "fig", "8", figUsage()) }},
	{name: "campaign", summary: "run every combination into -out, one JSON per pair, resumable",
		defaults: options{scale: 0.2, out: "campaign", all: true}, sweep: true, run: runCampaign,
		own: func(o *options, fs *flag.FlagSet) {
			o.outFlag(fs)
			fs.StringVar(&o.gpus, "gpus", "", "comma-separated GPU kernel subset")
			fs.StringVar(&o.pims, "pims", "", "comma-separated PIM kernel subset")
		}},
	{name: "trace", summary: "dump one channel's memory controller event trace",
		defaults: options{scale: 0.05, policy: "f3fs", vc: 2}, cell: true, run: runTrace,
		own: func(o *options, fs *flag.FlagSet) {
			fs.IntVar(&o.channel, "channel", 0, "channel to trace")
			fs.IntVar(&o.events, "events", 200, "events to retain (most recent)")
		}},
	{name: "timeline", summary: "render a co-execution timeline as CSV, live or from a capture (-in)",
		defaults: options{scale: 0.15, policy: "fr-fcfs", vc: 1}, cell: true, run: runTimeline,
		own: func(o *options, fs *flag.FlagSet) {
			fs.StringVar(&o.in, "in", "", "render a telemetry capture (JSONL) instead of simulating")
			fs.Uint64Var(&o.interval, "interval", 2000, "sampling interval in GPU cycles")
		}},
	{name: "plot", summary: "write CSV + JSON + SVG for Figs. 4, 8 and 11 into -out",
		defaults: options{scale: 0.25, out: "results"}, sweep: true, run: runPlot, own: (*options).outFlag},
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: pim <subcommand> [flags]   (pim <subcommand> -h lists its flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
}

func main() {
	// Ctrl-C / SIGTERM cancels in-flight simulations; an attached
	// journal keeps everything finished so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := pim(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// pim runs one subcommand and returns the process exit code: 0, 1 on a
// failure, 2 on a usage error, 130 when ctx was cancelled.
func pim(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var cmd *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "pim: unknown subcommand %q\n", args[0])
		}
		usage(stderr)
		return 2
	}
	o := cmd.defaults
	fs := flag.NewFlagSet("pim "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "pim %s: %s\n", cmd.name, cmd.summary)
		fs.PrintDefaults()
		usage(stderr)
	}
	if cmd.cell {
		o.cellFlags(fs)
	}
	o.runFlags(fs)
	if cmd.sweep {
		o.sweepFlags(fs)
	}
	if cmd.own != nil {
		cmd.own(&o, fs)
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := profile(o.pprof, func() error {
		r, err := o.setup(stdout, cmd.sweep)
		if err != nil {
			return err
		}
		err = cmd.run(ctx, &o, r, stdout)
		return errors.Join(err, r.Journal.Close())
	})
	switch {
	case err == nil:
		return 0
	case ctx.Err() != nil:
		fmt.Fprintf(stderr, "pim %s: interrupted; with a journal attached, rerun to resume\n", cmd.name)
		return 130
	}
	fmt.Fprintf(stderr, "pim %s: %v\n", cmd.name, err)
	return 1
}

// setup turns the run group — and, for the multi-cell subcommands that
// take the sweep group, that too — into the Runner (and its Cfg) the
// subcommand works on. It is the only place a flag becomes
// configuration.
func (o *options) setup(stdout io.Writer, multi bool) (*experiments.Runner, error) {
	telemetry.Enable(o.telemetryOut != "")
	cfg := config.Scaled()
	if o.full {
		cfg = config.Paper()
	} else if multi {
		// Trickle-starved combinations otherwise run to the full cycle
		// budget; 2.5M cycles is plenty for a stable extrapolation at
		// quick-sweep scales.
		cfg.MaxGPUCycles = 2_500_000
	}
	if o.memCap > 0 {
		cfg.Sched.F3FSMemCap = o.memCap
	}
	if o.pimCap > 0 {
		cfg.Sched.F3FSPIMCap = o.pimCap
	}
	if o.faults != "" {
		fs, err := faults.ParseSchedule(o.faults)
		if err != nil {
			return nil, err
		}
		cfg.Faults = fs
		if multi {
			fmt.Fprintf(stdout, "fault schedule: %s\n", fs)
		}
	}
	r := experiments.NewRunner(cfg, o.scale)
	r.RunTimeout = o.runTimeout
	if multi {
		r.Parallel = o.parallel
		r.TelemetryDir = o.telemetryOut
	}
	if o.journal != "" {
		return r, o.openJournal(r)
	}
	return r, nil
}

// openJournal attaches the -journal checkpoint to r, after discarding
// it under -resume=false.
func (o *options) openJournal(r *experiments.Runner) (err error) {
	if !o.resume {
		if err := os.Remove(o.journal); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	r.Journal, err = experiments.OpenJournal(o.journal, r.Cfg, r.Scale)
	return err
}

func (o *options) mode() config.VCMode {
	if o.vc == 2 {
		return config.VC2
	}
	return config.VC1
}

// profile runs body; with a directory given (-pprof) it does so under
// the CPU profiler, writing dir/cpu.pprof and then dir/heap.pprof.
func profile(dir string, body func() error) error {
	if dir == "" {
		return body()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer cpu.Close() // for the early returns; the last line checks Close
	heap, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return err
	}
	defer heap.Close()
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return err
	}
	err = body()
	pprof.StopCPUProfile()
	runtime.GC() // settle the heap so the profile reflects live data
	return errors.Join(err, cpu.Close(), pprof.WriteHeapProfile(heap), heap.Close())
}
