package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/report"
)

var bothModes = []config.VCMode{config.VC1, config.VC2}

// list splits a comma-separated flag value, or returns def when the
// flag was not given.
func list(csv string, def []string) []string {
	if csv != "" {
		return strings.Split(csv, ",")
	}
	return def
}

// figUsage is the -fig help text, generated from the registry.
func figUsage() string {
	var b strings.Builder
	b.WriteString("figure to regenerate:")
	for _, f := range experiments.Figures {
		fmt.Fprintf(&b, "\n  %-9s %s", f.ID, f.Title)
	}
	b.WriteString("\n  all       every figure above in that order")
	return b.String()
}

func runSweep(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	figs := experiments.Figures
	if o.fig != "all" {
		f, ok := experiments.FigureByID(o.fig)
		if !ok {
			return fmt.Errorf("unknown figure %q", o.fig)
		}
		figs = []experiments.Figure{f}
	}
	start := time.Now()
	for _, f := range figs {
		gpus, pims := f.Kernels(o.all)
		text, err := f.Run(ctx, r, gpus, pims, list(o.policies, core.PolicyNames))
		if err != nil {
			return err
		}
		if o.fig == "all" {
			fmt.Fprintf(stdout, "=== FIG %s ===\n", f.ID)
		}
		fmt.Fprint(stdout, text)
	}
	// The timing trailer is the one output line starting with "(";
	// `make golden-figures` drops it before comparing.
	what := fmt.Sprintf("%d figures", len(figs))
	if o.fig != "all" {
		gpus, pims := figs[0].Kernels(o.all)
		what = fmt.Sprintf("%d GPU x %d PIM kernels", len(gpus), len(pims))
	}
	fmt.Fprintf(stdout, "(%s, scale %.2f, %s)\n", what, o.scale, time.Since(start).Round(time.Millisecond))
	return nil
}

// runCampaign is the journaled competitive sweep followed by an export
// of its records to one file per pair.
func runCampaign(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if r.Journal == nil {
		o.journal = filepath.Join(o.out, "journal.jsonl")
		if err := o.openJournal(r); err != nil {
			return err
		}
	}
	// The zero Figure has the registry's default kernel sets: the quick
	// subset, or everything under -all.
	gpus, pims := experiments.Figure{}.Kernels(o.all)
	gpus, pims = list(o.gpus, gpus), list(o.pims, pims)
	pols := list(o.policies, core.PolicyNames)
	done := 0
	for _, mode := range bothModes {
		for _, policy := range pols {
			for _, g := range gpus {
				for _, p := range pims {
					if _, ok := r.Journal.LookupDone(experiments.PairKey(g, p, policy, mode)); ok {
						done++
					}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "campaign: %d combinations to run, %d already done\n", len(bothModes)*len(pols)*len(gpus)*len(pims)-done, done)

	start := time.Now()
	sweep, runErr := r.RunSweepCtx(ctx, gpus, pims, pols, bothModes)
	// Export also after an interrupt: what finished is in the sweep (and
	// the journal), so its files may as well exist.
	written, err := exportPairs(o.out, sweep, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "campaign complete: %d written, %d failed, %s\n", written, len(sweep.Failed), time.Since(start).Round(time.Second))
	if n := len(sweep.Failed); n > 0 && runErr == nil {
		return fmt.Errorf("%d combinations failed (see the .error.json files)", n)
	}
	return runErr
}

// exportPairs makes dir hold <pair>.json for every finished combination
// of the sweep and <pair>.error.json for every quarantined one (reported
// on stdout), writing the files that are absent or differ and removing
// the other one of the two, and returns how many results it wrote. The
// journal is the source of truth, so a result deleted out from under it
// is backfilled, one left by a campaign over another configuration is
// replaced, and a retried pair keeps only its latest outcome.
func exportPairs(dir string, s *experiments.Sweep, stdout io.Writer) (int, error) {
	written := 0
	records := report.SweepRecords(s)
	for i, p := range s.Cells {
		if p.GPUID == "" {
			continue // not reached before the sweep was interrupted
		}
		name := experiments.PairKey(p.GPUID, p.PIMID, p.Policy, p.Mode)
		var v any = records[i]
		path, other := filepath.Join(dir, name+".json"), filepath.Join(dir, name+".error.json")
		re := s.Failed[name]
		if re != nil {
			fmt.Fprintf(stdout, "  FAIL %s: %v\n", name, re)
			v, path, other = re, other, path
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return written, err
		}
		if old, err := os.ReadFile(path); err != nil || !bytes.Equal(old, data) {
			if err := journal.WriteFileAtomic(path, data, 0o644); err != nil {
				return written, err
			}
			if re == nil {
				written++
			}
		}
		if err := os.Remove(other); err != nil && !os.IsNotExist(err) {
			return written, err
		}
	}
	return written, nil
}

// runPlot writes the machine-readable forms of Figs. 8, 11 and 4 — the
// reproduction's analogue of the paper artifact's plotting scripts. Like
// a figure, it fails on a sweep with a quarantined cell rather than
// plotting that cell's zero metrics.
func runPlot(ctx context.Context, o *options, r *experiments.Runner, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	type file struct{ name, content string }
	write := func(files ...file) error {
		for _, f := range files {
			path := filepath.Join(o.out, f.name)
			if err := os.WriteFile(path, []byte(f.content), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "  wrote", path)
		}
		return nil
	}
	gpus, pims := experiments.Figure{}.Kernels(o.all)
	pols := list(o.policies, core.PolicyNames)

	fmt.Fprintln(stdout, "running competitive sweep (Fig. 8 data)...")
	sweep, err := r.RunSweepCtx(ctx, gpus, pims, pols, bothModes)
	if err != nil {
		return err
	}
	if re := sweep.Quarantined(); re != nil {
		return re
	}
	records, err := report.SweepJSON(sweep)
	if err != nil {
		return err
	}
	fig8, _ := experiments.FigureByID("8")
	tabs, err := fig8.Reduce(sweep)
	if err != nil {
		return err
	}
	if err := write(file{"competitive.csv", report.SweepCSV(sweep)}, file{"competitive.json", string(records)},
		file{"fig8.svg", report.FairnessThroughputBars(tabs[0]).SVG()}); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "running collaborative sweep (Fig. 11 data)...")
	collab, err := r.CollaborativeSweep(ctx, pols, bothModes)
	if err != nil {
		return err
	}
	if err := write(file{"collaborative.csv", report.CollabCSV(collab)}, file{"fig11.svg", report.CollabBars(collab).SVG()}); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "running characterization (Fig. 4 data)...")
	char, err := r.Characterize(ctx, gpus, pims)
	if err != nil {
		return err
	}
	if err := write(file{"characterization.csv", report.CharacterizationCSV(char)}); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "done:", o.out)
	return nil
}
