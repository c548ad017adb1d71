package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// pairJSON encodes a Pair without its manifest's wall-clock and cost
// fields, which differ between any two runs of one cell.
func pairJSON(t *testing.T, p Pair) string {
	t.Helper()
	if p.Manifest != nil {
		m := *p.Manifest
		m.StartTime, m.WallTimeMS, m.PeakGoroutines = "", 0, 0
		m.HeapAllocBytes, m.TotalAllocBytes, m.NumGC = 0, 0, 0
		p.Manifest = &m
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOverlappedPairMatchesCachedBaselines: a cell whose baselines run
// beside its contended run gives the same Pair, and caches the same
// baselines, as one whose baselines were computed first.
func TestOverlappedPairMatchesCachedBaselines(t *testing.T) {
	ctx := context.Background()
	at := tinyRunner(1).at
	for _, c := range []Cell{
		{GPU: "G8", PIM: "P2", Policy: "f3fs", Cfg: at(config.VC1)},
		{GPU: "G4", PIM: "P1", Policy: "fr-fcfs", Cfg: at(config.VC2)},
	} {
		warm := tinyRunner(1)
		if _, _, err := warm.baselines(ctx, c); err != nil {
			t.Fatal(err)
		}
		want, err := warm.CompetitiveCtx(ctx, c.GPU, c.PIM, c.Policy, c.Cfg.NoC.Mode)
		if err != nil {
			t.Fatal(err)
		}
		fresh := tinyRunner(1)
		got, err := fresh.CompetitiveCtx(ctx, c.GPU, c.PIM, c.Policy, c.Cfg.NoC.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := pairJSON(t, got), pairJSON(t, want); g != w {
			t.Errorf("%s x %s under %s/%s:\noverlapped %s\ncached     %s", c.GPU, c.PIM, c.Policy, c.Cfg.NoC.Mode, g, w)
		}
		fresh.Observe = func(what string, _ *sim.System) {
			t.Errorf("%s x %s: the overlapped pair left its baselines uncached (%s ran again)", c.GPU, c.PIM, what)
		}
		fg, fp, _ := fresh.baselines(ctx, c)
		wg, wp, _ := warm.baselines(ctx, c)
		if fg != wg || fp != wp {
			t.Errorf("%s x %s: cached baselines %+v / %+v, want %+v / %+v", c.GPU, c.PIM, fg, fp, wg, wp)
		}
	}
}

// TestOverlappedBaselineErrorWins: a GPU baseline that cannot finish
// fails the cell with its own error, as when the baselines ran first.
func TestOverlappedBaselineErrorWins(t *testing.T) {
	r := tinyRunner(1)
	r.Cfg.MaxGPUCycles = 500
	_, err := r.Competitive("G8", "P2", "f3fs", config.VC1)
	if err == nil || !strings.Contains(err.Error(), "standalone G8") || !strings.Contains(err.Error(), "did not finish") {
		t.Fatalf("pair with an unfinishable GPU baseline returned %v, want the baseline's error", err)
	}
}

// holdPIMBaseline installs an Observe hook on r under which a
// competitive cell's contended run panics while its helper is computing
// the PIM baseline, and returns the roles Observe has seen since its
// last call, sorted (the helper and the caller interleave). The
// GPU baseline has finished by then (the helper runs it first). The PIM
// baseline's run starts only once the contended run has panicked, plus
// a grace period for the pair to cancel it; from there it runs past the
// 4096-cycle context poll (P2 takes some 5400 cycles at tinyRunner's
// scale), where the cancel stops it. If
// joined is non-nil, the hook calls it once the contended run has
// panicked and waits for it before the grace period.
func holdPIMBaseline(r *Runner, joined func()) func() []string {
	var (
		mu    sync.Mutex
		calls []string
		hold  sync.Once
	)
	pimStarted, panicking := make(chan struct{}), make(chan struct{})
	r.Observe = func(what string, _ *sim.System) {
		mu.Lock()
		calls = append(calls, what)
		mu.Unlock()
		switch what {
		case "standalone-pim":
			hold.Do(func() {
				close(pimStarted)
				<-panicking
				if joined != nil {
					joined()
				}
				time.Sleep(20 * time.Millisecond)
			})
		case "competitive":
			<-pimStarted
			close(panicking)
			panic("injected contended-run bug")
		}
	}
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		seen := calls
		calls = nil
		slices.Sort(seen)
		return seen
	}
}

// wantPanicRunError fails t unless err is the injected contended-run
// panic of holdPIMBaseline.
func wantPanicRunError(t *testing.T, err error) {
	t.Helper()
	var re *RunError
	if !errors.As(err, &re) || re.Kind != "panic" || re.What != "competitive" {
		t.Fatalf("panicking contended run returned %v, want its panic *RunError", err)
	}
}

// TestOverlappedPanicCancelsBaselines: a contended run that panics fails
// the cell with its *RunError, and the PIM baseline it cancelled is not
// cached: a later StandalonePIM simulates it afresh, while StandaloneGPU
// reads the GPU baseline that finished before the panic.
func TestOverlappedPanicCancelsBaselines(t *testing.T) {
	r := tinyRunner(1)
	observed := holdPIMBaseline(r, nil)
	_, err := r.Competitive("G8", "P2", "f3fs", config.VC1)
	wantPanicRunError(t, err)
	if got := observed(); !slices.Equal(got, []string{"competitive", "standalone-gpu", "standalone-pim"}) {
		t.Fatalf("the pair ran %v", got)
	}
	fresh := tinyRunner(1)
	for _, k := range []struct {
		name string
		run  func(*Runner) (Standalone, error)
		sims []string // the simulations the call runs on r
	}{
		{"StandaloneGPU", func(r *Runner) (Standalone, error) { return r.StandaloneGPU("G8") }, nil},
		{"StandalonePIM", func(r *Runner) (Standalone, error) { return r.StandalonePIM("P2") }, []string{"standalone-pim"}},
	} {
		got, err := k.run(r)
		if err != nil {
			t.Fatalf("%s after the cancelled baseline: %v", k.name, err)
		}
		if sims := observed(); !slices.Equal(sims, k.sims) {
			t.Errorf("%s after the cancelled baseline simulated %v, want %v", k.name, sims, k.sims)
		}
		if want, err := k.run(fresh); err != nil || got != want {
			t.Fatalf("%s returned %+v, want %+v (%v)", k.name, got, want, err)
		}
	}
}

// TestJoinedBaselineOutlivesCancel: a caller with a live context that
// joins a baseline computation another pair then cancels gets the
// baseline, computed afresh, not that pair's cancellation.
func TestJoinedBaselineOutlivesCancel(t *testing.T) {
	r := tinyRunner(1)
	type outcome struct {
		s   Standalone
		err error
	}
	joiner := make(chan outcome, 1)
	observed := holdPIMBaseline(r, func() {
		go func() {
			s, err := r.StandalonePIM("P2")
			joiner <- outcome{s, err}
		}()
		// Give the joiner time to block on the held computation; one
		// that arrives after it is forgotten computes afresh anyway.
		time.Sleep(20 * time.Millisecond)
	})
	_, err := r.Competitive("G8", "P2", "f3fs", config.VC1)
	wantPanicRunError(t, err)
	got := <-joiner
	if got.err != nil {
		t.Fatalf("joined StandalonePIM returned %v, want the baseline", got.err)
	}
	if want, err := tinyRunner(1).StandalonePIM("P2"); err != nil || got.s != want {
		t.Fatalf("joined StandalonePIM returned %+v, want %+v (%v)", got.s, want, err)
	}
	if sims := observed(); !slices.Equal(sims, []string{"competitive", "standalone-gpu", "standalone-pim", "standalone-pim"}) {
		t.Errorf("the pair and the joiner ran %v, want the PIM baseline twice", sims)
	}
}
