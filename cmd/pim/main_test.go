package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/leakcheck"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pimOut runs one subcommand in-process, the way main does.
func pimOut(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = pim(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustPim is pimOut for invocations that have to succeed.
func mustPim(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := pimOut(args...)
	if code != 0 {
		t.Fatalf("pim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"run", "-no-such-flag"},
		{"campaign", "-halt-after", "2"}, // the retired test hook
		{"plot", "-gpu", "G8"},           // a cell flag on a sweep subcommand
	} {
		code, stdout, stderr := pimOut(args...)
		if code != 2 || stdout != "" {
			t.Errorf("pim %v: exit %d, stdout %q; want exit 2 and nothing on stdout", args, code, stdout)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, fmt.Sprintf("\n  %-9s %s\n", c.name, c.summary)) {
				t.Errorf("pim %v: usage does not list subcommand %s:\n%s", args, c.name, stderr)
			}
		}
	}
	if code, _, stderr := pimOut("sweep", "-fig", "99"); code != 1 || !strings.Contains(stderr, `unknown figure "99"`) {
		t.Errorf("sweep -fig 99: exit %d, stderr %q", code, stderr)
	}
	// Out-of-range trace arguments fail before anything runs.
	for _, c := range []struct{ flag, value, want string }{
		{"-channel", "8", "channel 8 out of range"},
		{"-events", "0", "-events 0: want at least 1"},
		{"-events", "-3", "-events -3: want at least 1"},
	} {
		if code, stdout, stderr := pimOut("trace", c.flag, c.value); code != 1 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("trace %s %s: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.flag, c.value, code, stdout, stderr, c.want)
		}
	}
}

// TestCancelledContextExits130: every subcommand runs under main's one
// signal context; a cancelled one stops the work and exits 130.
func TestCancelledContextExits130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"run", "-scale", "0.05"},
		{"campaign", "-scale", "0.05", "-out", t.TempDir()},
	} {
		var out, errOut bytes.Buffer
		if code := pim(ctx, args, &out, &errOut); code != 130 || !strings.Contains(errOut.String(), "interrupted") {
			t.Errorf("pim %v under a cancelled context: exit %d, stderr %q", args, code, errOut.String())
		}
	}
}

// TestEveryFlagDefinedOnce pins the flag surface: 25 names over the six
// subcommands, each registered by one flag call in main.go.
func TestEveryFlagDefinedOnce(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defs := regexp.MustCompile(`fs\.\w+Var\(&o\.\w+, "([a-z-]+)"`).FindAllStringSubmatch(string(src), -1)
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d[1]] {
			t.Errorf("flag -%s is defined twice", d[1])
		}
		seen[d[1]] = true
	}
	if len(seen) != 25 {
		t.Errorf("%d flag names defined, want 25", len(seen))
	}
}

// TestSetupIsTheOneConfiguration checks the rule the copies had let
// drift: every multi-cell subcommand gets the quick-sweep cycle cap (so
// plot plots what sweep prints), single-cell ones and -full do not.
func TestSetupIsTheOneConfiguration(t *testing.T) {
	uncapped := (&options{}).mustSetup(t, false).Cfg.MaxGPUCycles
	for _, c := range commands {
		o := c.defaults
		want := uncapped
		if c.sweep {
			want = 2_500_000
		}
		if got := o.mustSetup(t, c.sweep).Cfg.MaxGPUCycles; got != want {
			t.Errorf("%s: MaxGPUCycles = %d, want %d", c.name, got, want)
		}
		o.full = true
		if got := o.mustSetup(t, c.sweep).Cfg.MaxGPUCycles; got <= 2_500_000 {
			t.Errorf("%s -full: MaxGPUCycles = %d, want the Table I budget", c.name, got)
		}
	}
}

func (o *options) mustSetup(t *testing.T, multi bool) *experiments.Runner {
	t.Helper()
	r, err := o.setup(&bytes.Buffer{}, multi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOneRunPath: run, trace and timeline simulate their cell through
// the same Runner, so for the same cell they report the same run — and
// a capture written by run renders to the same run again.
func TestOneRunPath(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "cap.jsonl")
	cell := []string{"-gpu", "G8", "-pim", "P1", "-policy", "f3fs", "-vc", "2", "-scale", "0.05"}
	cycles := func(out, pattern string) string {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no %q in:\n%s", pattern, out)
		}
		return m[1]
	}
	const summary = `cfg=\w+ seed=\d+ ch=\d+ sms=\d+ rev=\S+ (gpu=\d+ dram=\d+)`
	want := cycles(mustPim(t, append([]string{"run", "-telemetry-out", capture}, cell...)...), summary)
	if got := cycles(mustPim(t, append([]string{"timeline"}, cell...)...), summary); got != want {
		t.Errorf("timeline ran %s, run ran %s", got, want)
	}
	if got := cycles(mustPim(t, "timeline", "-in", capture), summary); got != want {
		t.Errorf("timeline -in renders %s, run ran %s", got, want)
	}
	traced := cycles(mustPim(t, append([]string{"trace"}, cell...)...), `events of (\d+) GPU cycles`)
	if !strings.HasPrefix(want, "gpu="+traced+" ") {
		t.Errorf("trace ran %s GPU cycles, run ran %s", traced, want)
	}
}

// TestRunAndTimelineCloseTheirFiles: run -pprof (its two profiles) and
// timeline -in (the capture it renders) close every file they open.
// leakcheck counts the process's file descriptors around each.
func TestRunAndTimelineCloseTheirFiles(t *testing.T) {
	dir := t.TempDir()
	capture := filepath.Join(dir, "cap.jsonl")
	cell := []string{"-gpu", "G8", "-pim", "P1", "-policy", "f3fs", "-vc", "2", "-scale", "0.05"}
	mustPim(t, append([]string{"run", "-telemetry-out", capture}, cell...)...)
	for name, args := range map[string][]string{
		"run-pprof":   append([]string{"run", "-pprof", filepath.Join(dir, "prof")}, cell...),
		"timeline-in": {"timeline", "-in", capture},
	} {
		t.Run(name, func(t *testing.T) {
			leakcheck.Files(t, func() { mustPim(t, args...) })
		})
	}
}

// TestTraceOutputIsDeterministic fails on a totals section printed by
// ranging over a map: two identical invocations must agree byte for
// byte, with the totals in trace.Kind order.
func TestTraceOutputIsDeterministic(t *testing.T) {
	args := []string{"trace", "-scale", "0.05", "-events", "400"}
	first := mustPim(t, args...)
	for i := 0; i < 3; i++ {
		if again := mustPim(t, args...); again != first {
			t.Fatalf("two identical invocations differ:\n%s\n---\n%s", first, again)
		}
	}
	_, totals, _ := strings.Cut(first, "# event totals:\n")
	lines := strings.Split(strings.TrimSpace(totals), "\n")
	if len(lines) < 3 {
		t.Fatalf("want at least three event kinds in the totals:\n%s", totals)
	}
	kind := trace.EvEnqueue
	for _, line := range lines {
		name := strings.Fields(line)[1]
		for kind.String() != name {
			if kind++; kind > trace.EvComplete {
				t.Fatalf("%q is out of trace.Kind order in:\n%s", name, totals)
			}
		}
	}
}

func resultFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_VC?.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestCampaignResumesAndExports drives the journal-then-export design
// across invocations: a superset campaign finds the subset's pairs
// done, a finished campaign has nothing to run, and the export puts
// back a result deleted out from under the journal.
func TestCampaignResumesAndExports(t *testing.T) {
	dir := t.TempDir()
	campaign := func(policies string) string {
		return mustPim(t, "campaign", "-out", dir, "-scale", "0.05", "-gpus", "G8", "-pims", "P1,P2", "-parallel", "2", "-policies", policies)
	}
	for _, step := range []struct {
		policies, want string
		files          int
	}{
		{"fcfs", "campaign: 4 combinations to run, 0 already done\ncampaign complete: 4 written, 0 failed", 4},
		{"fcfs,f3fs", "campaign: 4 combinations to run, 4 already done\ncampaign complete: 4 written, 0 failed", 8},
		{"fcfs,f3fs", "campaign: 0 combinations to run, 8 already done\ncampaign complete: 0 written, 0 failed", 8},
	} {
		if out := campaign(step.policies); !strings.HasPrefix(out, step.want) {
			t.Fatalf("campaign -policies %s printed\n%swant prefix\n%s", step.policies, out, step.want)
		}
		if n := len(resultFiles(t, dir)); n != step.files {
			t.Fatalf("after -policies %s: %d result files, want %d", step.policies, n, step.files)
		}
	}

	victim := filepath.Join(dir, "G8_P2_f3fs_VC2.json")
	before, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if out := campaign("fcfs,f3fs"); !strings.Contains(out, "0 combinations to run") || !strings.Contains(out, "1 written") {
		t.Errorf("backfill invocation printed\n%s", out)
	}
	if after, err := os.ReadFile(victim); err != nil || !bytes.Equal(before, after) {
		t.Errorf("deleted result not backfilled byte for byte (err %v)", err)
	}

	// -resume=false discards the checkpoint and runs everything again.
	if out := mustPim(t, "campaign", "-out", dir, "-scale", "0.05", "-gpus", "G8", "-pims", "P1", "-policies", "fcfs", "-resume=false"); !strings.HasPrefix(out, "campaign: 2 combinations to run, 0 already done") {
		t.Errorf("-resume=false printed\n%s", out)
	}
}

// TestCampaignFileEqualsPlotRecord: campaign and plot reduce the same
// cells, so a pair's result file is the record plot writes for it. The
// cell is a starved pim-first one that runs into the quick-sweep cycle
// cap — the case where a plot without the cap disagreed.
func TestCampaignFileEqualsPlotRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two 2.5M-cycle starved cells")
	}
	campDir, plotDir := t.TempDir(), t.TempDir()
	mustPim(t, "campaign", "-out", campDir, "-scale", "0.1", "-gpus", "G17", "-pims", "P2", "-policies", "pim-first", "-parallel", "2")
	mustPim(t, "plot", "-out", plotDir, "-scale", "0.1", "-policies", "pim-first", "-parallel", "2")
	data, err := os.ReadFile(filepath.Join(plotDir, "competitive.json"))
	if err != nil {
		t.Fatal(err)
	}
	var records []report.PairRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, rec := range records {
		if rec.GPU != "G17" || rec.PIM != "P2" {
			continue
		}
		want, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(campDir, fmt.Sprintf("G17_P2_pim-first_%s.json", rec.VC)))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: campaign file (err %v)\n%s\nplot record\n%s", rec.VC, err, got, want)
		}
		if !rec.Aborted {
			t.Errorf("%s: the cell is expected to starve", rec.VC)
		}
		checked++
	}
	if checked != 2 {
		t.Errorf("checked %d records, want VC1 and VC2", checked)
	}
}

// TestExportPairsKeepsFaultsAndQueues: a per-pair campaign file carries
// what pimserve's competitive result does — the queue occupancies and,
// for a run under a fault schedule, the fault counts — and a clean
// pair's file has no faults object.
func TestExportPairsKeepsFaultsAndQueues(t *testing.T) {
	dir := t.TempDir()
	pair := func(pim string, counts *faults.Counts) experiments.Pair {
		return experiments.Pair{GPUID: "G8", PIMID: pim, Policy: "f3fs", Mode: config.VC2,
			AvgMemQ: 1.5, AvgPIMQ: 2.5, Faults: counts}
	}
	s := &experiments.Sweep{Cells: []experiments.Pair{
		pair("P1", &faults.Counts{DRAMRetries: 3, DRAMRetryCycles: 36, ThrottledCycles: 2000}),
		pair("P2", nil),
	}}
	if n, err := exportPairs(dir, s, io.Discard); err != nil || n != 2 {
		t.Fatalf("exportPairs wrote %d files, err %v", n, err)
	}
	read := func(name string) map[string]any {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	faulty := read("G8_P1_f3fs_VC2.json")
	counts, ok := faulty["faults"].(map[string]any)
	if !ok || counts["dram_retries"] != 3.0 || counts["dram_retry_cycles"] != 36.0 || counts["throttled_cycles"] != 2000.0 {
		t.Errorf("faulty pair's file has faults %v, want its counts", faulty["faults"])
	}
	if faulty["avg_memq"] != 1.5 || faulty["avg_pimq"] != 2.5 {
		t.Errorf("queue occupancies %v / %v, want 1.5 / 2.5", faulty["avg_memq"], faulty["avg_pimq"])
	}
	if _, ok := read("G8_P2_f3fs_VC2.json")["faults"]; ok {
		t.Error("clean pair's file carries a faults object")
	}
}

// TestExportPairsFilePinned pins a per-pair campaign file: files
// written before a refactor of the outcome records must compare equal,
// so a resumed campaign does not rewrite them.
func TestExportPairsFilePinned(t *testing.T) {
	dir := t.TempDir()
	s := &experiments.Sweep{Cells: []experiments.Pair{{GPUID: "G8", PIMID: "P1", Policy: "f3fs", Mode: config.VC2,
		GPUSpeedup: 0.5, PIMSpeedup: 0.25, Fairness: 0.5, Throughput: 0.75, MemArrivalNorm: 0.125,
		Switches: 42, ConflictsPerSwitch: 1.5, DrainPerSwitch: 12, AvgMemQ: 3.25, AvgPIMQ: 60.5, Aborted: true,
		Faults: &faults.Counts{DRAMRetries: 3, DRAMRetryCycles: 36}}}}
	if _, err := exportPairs(dir, s, io.Discard); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "vc": "VC2",
  "policy": "f3fs",
  "gpu": "G8",
  "pim": "P1",
  "gpu_speedup": 0.5,
  "pim_speedup": 0.25,
  "fairness": 0.5,
  "throughput": 0.75,
  "mem_arrival_norm": 0.125,
  "switches": 42,
  "conflicts_per_switch": 1.5,
  "drain_per_switch": 12,
  "avg_memq": 3.25,
  "avg_pimq": 60.5,
  "aborted": true,
  "faults": {
    "dram_retries": 3,
    "dram_retry_cycles": 36,
    "noc_link_stalls": 0,
    "noc_link_stall_cycles": 0,
    "throttled_cycles": 0
  }
}`
	if got, err := os.ReadFile(filepath.Join(dir, "G8_P1_f3fs_VC2.json")); err != nil || string(got) != want {
		t.Errorf("per-pair file (err %v)\n%s\nwant\n%s", err, got, want)
	}
}

// TestExportPairsRemovesCounterpart: a pair has one file, its result or
// its quarantine record. A retried pair that now succeeds loses its
// .error.json, and one that now fails loses the result an earlier
// campaign left.
func TestExportPairsRemovesCounterpart(t *testing.T) {
	dir := t.TempDir()
	pair := experiments.Pair{GPUID: "G8", PIMID: "P1", Policy: "f3fs", Mode: config.VC1, Fairness: 0.5}
	name := experiments.PairKey(pair.GPUID, pair.PIMID, pair.Policy, pair.Mode)
	failed := &experiments.Sweep{Cells: []experiments.Pair{pair},
		Failed: map[string]*experiments.RunError{name: {Kind: "panic", Message: "injected"}}}
	done := &experiments.Sweep{Cells: []experiments.Pair{pair}}
	exists := func(suffix string) bool {
		_, err := os.Stat(filepath.Join(dir, name+suffix))
		return err == nil
	}
	for _, step := range []struct {
		s            *experiments.Sweep
		result, fail bool
	}{{failed, false, true}, {done, true, false}, {failed, false, true}} {
		if _, err := exportPairs(dir, step.s, io.Discard); err != nil {
			t.Fatal(err)
		}
		if exists(".json") != step.result || exists(".error.json") != step.fail {
			t.Errorf("after exporting a pair that failed=%v: result file %v, error file %v",
				step.fail, exists(".json"), exists(".error.json"))
		}
	}
}

// TestPlotRefusesQuarantinedCell: a figure needs every cell, so plot
// fails with the quarantined cell's RunError instead of plotting its
// zero metrics.
func TestPlotRefusesQuarantinedCell(t *testing.T) {
	o := &options{out: t.TempDir(), scale: 0.05, policies: "f3fs"}
	r, err := o.setup(io.Discard, true)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	r.Observe = func(what string, _ *sim.System) {
		if what == experiments.KindCompetitive {
			once.Do(func() { panic("injected") })
		}
	}
	err = runPlot(context.Background(), o, r, io.Discard)
	var re *experiments.RunError
	if !errors.As(err, &re) || re.Kind != "panic" || re.PanicValue != "injected" {
		t.Fatalf("plot over a sweep with a quarantined cell returned %v, want its RunError", err)
	}
	if _, err := os.Stat(filepath.Join(o.out, "competitive.json")); err == nil {
		t.Error("plot wrote competitive.json for a sweep with a quarantined cell")
	}
}

// TestDocsListEveryRegistryFigure keeps the two hand-readable figure
// lists honest against the registry: the sweep -fig usage text
// (generated from it) and the package comment of main.go (checked line
// by line).
func TestDocsListEveryRegistryFigure(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	comment, _, _ := strings.Cut(string(src), "\npackage main")
	_, _, usage := pimOut("sweep", "-h")
	for _, f := range experiments.Figures {
		line := fmt.Sprintf("//\t%-14s %s\n", "-fig "+f.ID, f.Title)
		if !strings.Contains(comment, line) {
			t.Errorf("package comment lacks the line %q", line)
		}
		if !strings.Contains(usage, fmt.Sprintf("  %-9s %s\n", f.ID, f.Title)) {
			t.Errorf("sweep -h lacks figure %s", f.ID)
		}
	}
	if n := strings.Count(comment, "//\t-fig "); n != len(experiments.Figures)+1 {
		t.Errorf("package comment lists %d -fig values, want the %d registry figures plus all", n, len(experiments.Figures))
	}
}
