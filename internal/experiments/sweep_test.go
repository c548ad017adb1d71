package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
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

// TestStudiesHonourRunTimeoutAndCancel: with the baselines warm, a 1ns
// RunTimeout must surface from every study of the registry, and from
// Fig. 5's co-run, as a *RunError of kind "timeout", and a cancelled
// context must stop it. Points with a configuration of their own run on
// runners of their own, which must keep the harness settings.
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
	runs := map[string]func(context.Context) error{
		"corun": func(ctx context.Context) error { _, err := r.CoRun(ctx, oneGPU, []string{"G4"}); return err },
	}
	for _, f := range Figures {
		if f.study != nil {
			runs[f.ID] = func(ctx context.Context) error {
				_, err := f.study.run(ctx, r, f.ID, oneGPU, onePIM, []string{"f3fs"})
				return err
			}
		}
	}
	for name, run := range runs {
		var re *RunError
		if err := run(ctx); !errors.As(err, &re) || re.Kind != "timeout" {
			t.Errorf("%s under RunTimeout=1ns returned %v, want a timeout *RunError", name, err)
		}
		if err := run(cancelled); !errors.Is(err, context.Canceled) {
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

// TestParallelSweepsIdenticalAndConcurrent: every study of the registry
// gives the same table at Parallel=1 and Parallel=4, and at Parallel=4
// its cells really do run concurrently — those of points on a runner of
// their own (Fig. 14b's queue sizes, the dual row buffer) included.
func TestParallelSweepsIdenticalAndConcurrent(t *testing.T) {
	ctx := context.Background()
	for _, f := range Figures {
		if f.study == nil {
			continue
		}
		run := func(r *Runner) *studyTable {
			tab, err := f.study.run(ctx, r, f.ID, oneGPU, onePIM, []string{"fcfs", "f3fs"})
			if err != nil {
				t.Fatal(f.ID, err)
			}
			return tab
		}
		serial := run(tinyRunner(1))
		r := tinyRunner(4)
		probe := &overlapProbe{}
		r.Observe = probe.observe
		if parallel := run(r); !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: Parallel=4 %+v differs from Parallel=1 %+v", f.ID, parallel, serial)
		}
		if !probe.overlapped {
			t.Errorf("%s: no two runs were in flight at once under Parallel=4", f.ID)
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

// TestExperimentsTablesMatchGolden: every fenced block of EXPERIMENTS.md
// is quoted verbatim from one of the committed goldens, so a quoted table
// cannot drift from what the code prints.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var goldens []string
	for _, name := range []string{"figures_quick.txt", "fig8_all180.txt"} {
		g, err := os.ReadFile("../../testdata/golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		goldens = append(goldens, string(g))
	}
	parts := strings.Split(string(doc), "\n```")
	if len(parts)%2 == 0 {
		t.Fatal("EXPERIMENTS.md has an unclosed code fence")
	}
	for i := 1; i < len(parts); i += 2 {
		_, block, _ := strings.Cut(parts[i], "\n") // drop the fence's info string
		block += "\n"
		if !slices.ContainsFunc(goldens, func(g string) bool { return strings.Contains(g, block) }) {
			t.Errorf("EXPERIMENTS.md quotes a block found in no golden:\n%s", block)
		}
	}
}
