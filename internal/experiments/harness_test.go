package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// buildCompetitiveSystem assembles the same contended System that
// Competitive would run, so harness tests can drive runSystem directly.
func buildCompetitiveSystem(t *testing.T, r *Runner, factory sched.PolicyFactory, mode config.VCMode) (config.Config, *sim.System) {
	t.Helper()
	cfg := r.Cfg
	cfg.NoC.Mode = mode
	descs, err := Cell{GPU: "G8", PIM: "P1", Cfg: cfg}.descs(r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(cfg, factory, descs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sys
}

// TestRunTimeoutSurfacesAsRunError checks the per-run deadline: a
// RunTimeout far shorter than the simulation yields a structured
// *RunError of kind "timeout" carrying the diagnostic bundle, and the
// deadline cause stays reachable through errors.Is.
func TestRunTimeoutSurfacesAsRunError(t *testing.T) {
	r := quickRunner()
	r.RunTimeout = time.Millisecond
	cfg, sys := buildCompetitiveSystem(t, r, core.Factory("f3fs", r.Cfg.Sched), config.VC1)
	_, err := r.runSystem(context.Background(), sys, Cell{GPU: "G8", PIM: "P1", Policy: "f3fs", Cfg: cfg})
	if err == nil {
		t.Fatal("1ms deadline did not interrupt the run")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("timeout surfaced as %T, want *RunError: %v", err, err)
	}
	if re.Kind != "timeout" {
		t.Fatalf("kind = %q, want timeout (%v)", re.Kind, re)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("RunError does not unwrap to context.DeadlineExceeded")
	}
	if re.GPUID != "G8" || re.PIMID != "P1" || re.Policy != "f3fs" || re.What != "competitive" {
		t.Fatalf("run identity lost: %+v", re)
	}
	if re.ConfigHash == "" || len(re.Queues) == 0 {
		t.Fatalf("diagnostic bundle incomplete: hash=%q queues=%d", re.ConfigHash, len(re.Queues))
	}
	if !strings.Contains(re.Error(), "timeout") {
		t.Fatalf("Error() does not mention the kind: %s", re.Error())
	}
}

// panicPolicy blows up once the DRAM clock passes a fixed cycle,
// modelling a latent scheduling bug deep inside the cycle loop. Keying on
// the clock (not a call count) keeps it idempotent, as the event core's
// quiescence analysis requires of a policy.
type panicPolicy struct{}

func (p *panicPolicy) Name() string { return "panic-after" }
func (p *panicPolicy) DesiredMode(v sched.View) sched.Mode {
	if v.Now() > 100 {
		panic("injected policy bug")
	}
	return sched.ModeMEM
}
func (p *panicPolicy) OnIssue(sched.View, sched.IssueInfo) {}
func (p *panicPolicy) OnSwitch(sched.View, sched.Mode)     {}

// TestPanicRecoveredAsRunError checks that a panic inside the cycle loop
// does not unwind the campaign: it comes back as a *RunError of kind
// "panic" with the panic value and a stack trace.
func TestPanicRecoveredAsRunError(t *testing.T) {
	r := quickRunner()
	cfg, sys := buildCompetitiveSystem(t, r, func() sched.Policy { return &panicPolicy{} }, config.VC1)
	_, err := r.runSystem(context.Background(), sys, Cell{GPU: "G8", PIM: "P1", Policy: "panic-after", Cfg: cfg})
	if err == nil {
		t.Fatal("panicking policy produced no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("panic surfaced as %T, want *RunError: %v", err, err)
	}
	if re.Kind != "panic" {
		t.Fatalf("kind = %q, want panic", re.Kind)
	}
	if re.PanicValue != "injected policy bug" {
		t.Fatalf("panic value lost: %q", re.PanicValue)
	}
	if !strings.Contains(re.Stack, "panicPolicy") {
		t.Fatal("stack trace does not reach the panic site")
	}
	if len(re.Queues) == 0 {
		t.Fatal("panic diagnostics carry no queue snapshot")
	}
}

// TestJournalRoundTrip writes a done entry, reopens the journal, and
// checks resume semantics: done pairs come back value-equal, missing
// pairs report not-done so they run.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	cfg := config.Scaled()

	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	doneKey := PairKey("G8", "P1", "f3fs", config.VC1)
	want := Pair{
		GPUID: "G8", PIMID: "P1", Policy: "f3fs", Mode: config.VC1,
		GPUSpeedup: 0.8071523, PIMSpeedup: 0.33381, Fairness: 0.413575,
		Throughput: 1.1409623, Switches: 1234, AvgMemQ: 17.25,
	}
	// A pair recorded twice (a sweep listing a cell twice) is one line.
	for range 2 {
		if err := j.RecordDone(doneKey, want); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || bytes.Count(data, []byte("\n")) != 2 {
		t.Fatalf("journal is not the header plus one line: %v\n%s", err, data)
	}

	j2, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := j2.LookupDone(doneKey)
	if !ok {
		t.Fatal("done entry lost across reopen")
	}
	// JSON round-trips float64 exactly, so resumed numbers are identical.
	if got != want {
		t.Fatalf("journaled pair drifted:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := j2.LookupDone(PairKey("G17", "P1", "f3fs", config.VC1)); ok {
		t.Fatal("missing entry reported as done")
	}
	if n := len(j2.done); n != 1 {
		t.Fatalf("%d pairs done, want 1", n)
	}
}

// TestJournalReplaysV1Lines resumes from a pimsim-journal/v1 file
// written by hand the way earlier versions wrote it, "failed" lines
// included: done pairs resume, the failed pair re-runs, and a garbage
// line is skipped without taking the line after it down.
func TestJournalReplaysV1Lines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := config.Scaled()
	v1 := fmt.Sprintf(`{"schema":"pimsim-journal/v1","config_hash":%q,"scale":0.25}
{"key":"G8_P1_f3fs_VC1","status":"done","pair":{"GPUID":"G8","PIMID":"P1","Policy":"f3fs","Mode":0,"GPUSpeedup":0.75,"Switches":12}}
{"key":"G8_P2_f3fs_VC1","status":"failed","error":{"gpu_id":"G8","pim_id":"P2","policy":"f3fs","mode":"VC1","kind":"timeout","config_hash":"","seed":0,"gpu_cycle":0,"dram_cycle":0,"message":"deadline"}}
{"key":"G17_P1_f3fs_VC1","status":"do!! not json
{"key":"G17_P2_f3fs_VC1","status":"done","pair":{"GPUID":"G17","PIMID":"P2","Policy":"f3fs","Mode":0,"PIMSpeedup":0.5}}
`, telemetry.HashConfig(cfg))
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if p, ok := j.LookupDone(PairKey("G8", "P1", "f3fs", config.VC1)); !ok || p.GPUSpeedup != 0.75 || p.Switches != 12 {
		t.Fatalf("done pair before the damage: %+v, %v", p, ok)
	}
	if p, ok := j.LookupDone(PairKey("G17", "P2", "f3fs", config.VC1)); !ok || p.PIMSpeedup != 0.5 {
		t.Fatalf("done pair after the garbage line lost: %+v, %v", p, ok)
	}
	for _, key := range []string{PairKey("G8", "P2", "f3fs", config.VC1), PairKey("G17", "P1", "f3fs", config.VC1)} {
		if _, ok := j.LookupDone(key); ok {
			t.Fatalf("%s reported done; resume would skip it", key)
		}
	}
	if n := len(j.done); n != 2 {
		t.Fatalf("%d pairs done, want 2", n)
	}
}

// TestJournalHeaderMismatchDiscards checks a journal written for one
// config is never trusted for another: a changed seed (or fault
// schedule — both change the config hash) or scale starts fresh.
func TestJournalHeaderMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	cfg := config.Scaled()
	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	key := PairKey("G8", "P1", "fcfs", config.VC1)
	if err := j.RecordDone(key, Pair{GPUID: "G8", PIMID: "P1"}); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	j2, err := OpenJournal(path, other, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.LookupDone(key); ok {
		t.Fatal("journal for a different config was trusted")
	}

	j3, err := OpenJournal(path, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j3.LookupDone(key); ok {
		t.Fatal("journal for a different scale was trusted")
	}

	// And the matching campaign still sees its entry.
	j4, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j4.LookupDone(key); !ok {
		t.Fatal("matching reopen lost the entry")
	}
}

// TestJournalTruncatedTailTolerated simulates a kill mid-append:
// entries before the torn line must survive, and a pair recorded after
// the restart must survive the next one rather than land on the torn
// bytes.
func TestJournalTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	cfg := config.Scaled()
	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	key := PairKey("G8", "P1", "fcfs", config.VC1)
	if err := j.RecordDone(key, Pair{GPUID: "G8", PIMID: "P1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"G17_P1_fcfs_VC1","status":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.LookupDone(key); !ok {
		t.Fatal("intact prefix entry lost to a torn tail")
	}
	if _, ok := j2.LookupDone(PairKey("G17", "P1", "fcfs", config.VC1)); ok {
		t.Fatal("torn entry was resurrected")
	}
	after := PairKey("G8", "P2", "fcfs", config.VC1)
	if err := j2.RecordDone(after, Pair{GPUID: "G8", PIMID: "P2"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, k := range []string{key, after} {
		if _, ok := j3.LookupDone(k); !ok {
			t.Fatalf("%s lost after the second restart", k)
		}
	}
}

// sweepNumbers flattens the metrics a campaign reports, for exact
// comparison between an uninterrupted run and a cancel-then-resume run.
func sweepNumbers(s *Sweep) map[string][5]float64 {
	out := map[string][5]float64{}
	for _, pair := range s.Cells {
		out[PairKey(pair.GPUID, pair.PIMID, pair.Policy, pair.Mode)] = [5]float64{
			pair.GPUSpeedup, pair.PIMSpeedup, pair.Fairness,
			pair.Throughput, float64(pair.Switches),
		}
	}
	return out
}

// TestSweepCancelAndResume is the campaign-hardening end-to-end: a
// parallel sweep is cancelled mid-flight, must return promptly without
// leaking worker goroutines, and a resumed campaign over the same
// journal must finish the remaining pairs and reproduce the exact
// numbers of an uninterrupted run.
func TestSweepCancelAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep test")
	}
	gpuIDs := []string{"G8"}
	pimIDs := []string{"P1", "P2"}
	policies := []string{"fcfs", "f3fs"}
	modes := []config.VCMode{config.VC1}
	cfg := quickRunner().Cfg
	scale := 0.25

	// Uninterrupted reference campaign (no journal).
	ref := NewRunner(cfg, scale)
	ref.Parallel = 4
	refSweep, err := ref.RunSweep(gpuIDs, pimIDs, policies, modes)
	if err != nil {
		t.Fatal(err)
	}
	refNums := sweepNumbers(refSweep)

	journalPath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(journalPath, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	interrupted := NewRunner(cfg, scale)
	interrupted.Parallel = 4
	interrupted.Journal = j

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var sweepErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, sweepErr = interrupted.RunSweepCtx(ctx, gpuIDs, pimIDs, policies, modes)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return within 30s")
	}
	if !errors.Is(sweepErr, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", sweepErr)
	}
	if n := len(j.done); n >= len(gpuIDs)*len(pimIDs)*len(policies)*len(modes) {
		t.Fatalf("cancellation landed after the whole sweep finished (%d done); nothing left to resume", n)
	}

	// All in-flight simulations must have wound down, not leaked.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked by cancelled sweep: %d before, %d after", before, n)
	}

	// Resume in a fresh runner (fresh process, conceptually): reopen the
	// journal and run the same campaign to completion.
	j2, err := OpenJournal(journalPath, cfg, scale)
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewRunner(cfg, scale)
	resumed.Parallel = 4
	resumed.Journal = j2
	resSweep, err := resumed.RunSweep(gpuIDs, pimIDs, policies, modes)
	if err != nil {
		t.Fatal(err)
	}
	resNums := sweepNumbers(resSweep)
	if len(resNums) != len(refNums) {
		t.Fatalf("resumed sweep covers %d pairs, reference %d", len(resNums), len(refNums))
	}
	for key, want := range refNums {
		if got := resNums[key]; got != want {
			t.Fatalf("resumed %s = %v, want %v (resume must be bit-identical)", key, got, want)
		}
	}
	if n := len(j2.done); n != len(refNums) {
		t.Fatalf("journal records %d done after resume, want %d", n, len(refNums))
	}
}

// TestSweepQuarantinesFailedPairs checks a failing combination does not
// abort the campaign: with a per-run timeout tripping every contended
// run, the sweep completes and quarantines each failure in Failed. A
// failure is not journaled, so a resume retries it.
func TestSweepQuarantinesFailedPairs(t *testing.T) {
	cfg := quickRunner().Cfg
	r := NewRunner(cfg, 0.25)
	r.Parallel = 2
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	r.Journal = j

	// Warm the standalones unbounded, then bound contended runs so
	// tightly every one times out.
	if _, err := r.StandaloneGPU("G8"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"P1", "P2"} {
		if _, err := r.StandalonePIM(p); err != nil {
			t.Fatal(err)
		}
	}
	r.RunTimeout = time.Millisecond

	s, err := r.RunSweep([]string{"G8"}, []string{"P1", "P2"}, []string{"f3fs"}, []config.VCMode{config.VC1})
	if err != nil {
		t.Fatalf("sweep aborted instead of quarantining failures: %v", err)
	}
	if len(s.Failed) != 2 {
		t.Fatalf("Failed records %d combinations, want 2: %+v", len(s.Failed), s.Failed)
	}
	for key, re := range s.Failed {
		if re.Kind != "timeout" {
			t.Fatalf("%s failed with kind %q, want timeout", key, re.Kind)
		}
	}
	if n := len(j.done); n != 0 {
		t.Fatalf("journal counts %d done, want 0", n)
	}
	// Resume with a sane timeout: the failed pairs re-run and complete.
	j2, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cfg, 0.25)
	r2.Parallel = 2
	r2.Journal = j2
	s2, err := r2.RunSweep([]string{"G8"}, []string{"P1", "P2"}, []string{"f3fs"}, []config.VCMode{config.VC1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Failed) != 0 {
		t.Fatalf("resume left failures: %+v", s2.Failed)
	}
	if n := len(j2.done); n != 2 {
		t.Fatalf("resume journaled %d done, want 2", n)
	}
}
