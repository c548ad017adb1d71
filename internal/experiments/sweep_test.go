package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

var (
	oneGPU = []string{"G8"}
	onePIM = []string{"P2"}
)

// tinyRunner is the 1x1-kernel, scale-0.1 setting of the sweep tests.
func tinyRunner(parallel int) *Runner {
	cfg := config.Scaled()
	cfg.MaxGPUCycles = 2_000_000
	r := NewRunner(cfg, 0.1)
	r.Parallel = parallel
	return r
}

// studies lists every figure function that used to build and run its
// cells outside the resilience harness, or on sub-runners that dropped
// the harness settings.
func studies(r *Runner) map[string]func(context.Context) error {
	return map[string]func(context.Context) error{
		"ablation": func(ctx context.Context) error { _, err := r.Ablation(ctx, oneGPU, "P2"); return err },
		"priority": func(ctx context.Context) error {
			_, err := r.PrioritySweep(ctx, oneGPU, onePIM, [][2]int{{1, 2}}, 512, config.VC2)
			return err
		},
		"energy": func(ctx context.Context) error {
			_, err := r.EnergySweep(ctx, "G8", "P2", []string{"f3fs"}, config.VC2, energyModel())
			return err
		},
		"corun": func(ctx context.Context) error { _, err := r.CoRun(ctx, oneGPU, []string{"G4"}); return err },
		"queue": func(ctx context.Context) error {
			_, err := r.QueueSensitivity(ctx, oneGPU, onePIM, []int{256})
			return err
		},
		"dual": func(ctx context.Context) error {
			_, err := r.DualBufferAblation(ctx, "G8", "P2", []string{"f3fs"}, config.VC2)
			return err
		},
	}
}

// TestStudiesHonourRunTimeoutAndCancel: with the baselines warm, a 1ns
// RunTimeout must surface from every study as a *RunError of kind
// "timeout", and a cancelled context must stop it.
func TestStudiesHonourRunTimeoutAndCancel(t *testing.T) {
	r := tinyRunner(2)
	ctx := context.Background()
	for _, c := range []Cell{{GPU: "G8", PIM: "P2"}, llmCell("f3fs", config.VC2, nil)} {
		if _, _, err := r.baselines(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	r.RunTimeout = time.Nanosecond
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for name, study := range studies(r) {
		var re *RunError
		if err := study(ctx); !errors.As(err, &re) || re.Kind != "timeout" {
			t.Errorf("%s under RunTimeout=1ns returned %v, want a timeout *RunError", name, err)
		}
		if err := study(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context returned %v, want context.Canceled", name, err)
		}
	}
}

// overlapProbe is an Observe hook that proves two co-execution runs were
// in flight at once: the first arrival waits for a second one (or gives
// up after a grace period, once).
type overlapProbe struct {
	mu         sync.Mutex
	waiting    chan struct{}
	overlapped bool
	gaveUp     bool
}

func (p *overlapProbe) observe(what string, _ *sim.System) {
	if what != "competitive" && what != "collaborative" {
		return
	}
	p.mu.Lock()
	switch {
	case p.overlapped || p.gaveUp:
		p.mu.Unlock()
	case p.waiting != nil:
		close(p.waiting)
		p.waiting, p.overlapped = nil, true
		p.mu.Unlock()
	default:
		ch := make(chan struct{})
		p.waiting = ch
		p.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			p.mu.Lock()
			p.waiting, p.gaveUp = nil, true
			p.mu.Unlock()
		}
	}
}

// TestParallelSweepsIdenticalAndConcurrent: the design-point studies
// give the same numbers at Parallel=1 and Parallel=4, and at Parallel=4
// their cells really do run concurrently (Fig. 14b's points are separate
// runners of one cell each here, so only its numbers are compared).
func TestParallelSweepsIdenticalAndConcurrent(t *testing.T) {
	ctx := context.Background()
	run := map[string]func(r *Runner) (any, error){
		"cap":   func(r *Runner) (any, error) { return r.CapSensitivity(ctx, oneGPU, onePIM, []int{64, 256}, config.VC2) },
		"bliss": func(r *Runner) (any, error) { return r.BlissSweep(ctx, oneGPU, onePIM, []int{2, 8}, config.VC1) },
		"priority": func(r *Runner) (any, error) {
			return r.PrioritySweep(ctx, oneGPU, onePIM, [][2]int{{1, 2}, {2, 1}}, 512, config.VC2)
		},
		"14b": func(r *Runner) (any, error) { return r.QueueSensitivity(ctx, oneGPU, onePIM, []int{256, 512}) },
	}
	for name, study := range run {
		serial, err := study(tinyRunner(1))
		if err != nil {
			t.Fatal(name, err)
		}
		r := tinyRunner(4)
		probe := &overlapProbe{}
		if name != "14b" {
			r.Observe = probe.observe
		}
		parallel, err := study(r)
		if err != nil {
			t.Fatal(name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: Parallel=4 %+v differs from Parallel=1 %+v", name, parallel, serial)
		}
		if name != "14b" && !probe.overlapped {
			t.Errorf("%s: no two runs were in flight at once under Parallel=4", name)
		}
	}
}

// TestReduceCoRunSumsInSuiteOrder: the Fig. 5 averages depend only on
// the suite order, never on map iteration. The inputs are chosen so any
// other summation order changes the float result.
func TestReduceCoRunSumsInSuiteOrder(t *testing.T) {
	suite := []string{"G1", "G2", "G3", "G4"}
	coRunners := []string{"none", "P1"}
	speedups := []float64{1e16, 1, -1e16, 1, 0.1, 0.2, 0.3, 0.4}
	for rep := 0; rep < 50; rep++ {
		c := reduceCoRun(suite, coRunners, speedups)
		for i, co := range coRunners {
			want := stats.Mean(speedups[i*len(suite) : (i+1)*len(suite)])
			if got := c.AvgSpeedup[co]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rep %d: AvgSpeedup[%s] = %v, want the suite-order mean %v", rep, co, got, want)
			}
		}
		if c.PerKernel["P1"]["G3"] != 0.3 {
			t.Fatalf("PerKernel misplaced: %+v", c.PerKernel)
		}
	}
}

// TestExperimentsIndexCoversRegistry: EXPERIMENTS.md's index has one row
// per registry figure, carrying its ID and title.
func TestExperimentsIndexCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(doc), "\n## Index\n")
	index, _, _ = strings.Cut(index, "\n## ")
	if !found {
		t.Fatal("EXPERIMENTS.md has no Index section")
	}
	for _, f := range Figures {
		if row := fmt.Sprintf("| `%s` | %s |", f.ID, f.Title); !strings.Contains(index, row) {
			t.Errorf("EXPERIMENTS.md index lacks the row %q", row)
		}
	}
}
