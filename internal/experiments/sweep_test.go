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
// RunTimeout must surface from every figure of the registry as a
// *RunError of kind "timeout", and a cancelled context must stop it.
// Points with a configuration of their own, whose baselines are their
// own, must keep the harness settings too.
func TestStudiesHonourRunTimeoutAndCancel(t *testing.T) {
	r := tinyRunner(2)
	ctx := context.Background()
	for _, c := range []Cell{{GPU: "G8", PIM: "P2", Cfg: r.Cfg}, llmCell("f3fs", r.at(config.VC2))} {
		if _, _, err := r.baselines(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	r.RunTimeout = time.Nanosecond
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, f := range Figures {
		run := func(ctx context.Context) error {
			_, err := f.tables(ctx, r, oneGPU, onePIM, []string{"f3fs"})
			return err
		}
		var re *RunError
		if err := run(ctx); !errors.As(err, &re) || re.Kind != "timeout" {
			t.Errorf("%s under RunTimeout=1ns returned %v, want a timeout *RunError", f.ID, err)
		}
		if err := run(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context returned %v, want context.Canceled", f.ID, err)
		}
	}
}

// overlapProbe is an Observe hook that proves two runs of the watched
// roles were in flight at once: the first arrival waits for a second one
// (or gives up after a grace period, once).
type overlapProbe struct {
	watch      map[string]bool
	mu         sync.Mutex
	waiting    chan struct{}
	overlapped bool
	gaveUp     bool
}

func (p *overlapProbe) observe(what string, _ *sim.System) {
	if !p.watch[what] {
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

// TestParallelSweepsIdenticalAndConcurrent: every figure of the registry
// gives the same tables at Parallel=1 and Parallel=4, and at Parallel=4
// its cells really do run concurrently — those of points on a runner of
// their own (Fig. 14b's queue sizes, the dual row buffer) included. The
// pool runs co-execution cells, or, for Fig. 4, the standalone runs
// themselves (every other figure computes its baselines before it).
func TestParallelSweepsIdenticalAndConcurrent(t *testing.T) {
	ctx := context.Background()
	for _, f := range Figures {
		run := func(r *Runner) []*Table {
			tabs, err := f.tables(ctx, r, oneGPU, onePIM, []string{"fcfs", "f3fs"})
			if err != nil {
				t.Fatal(f.ID, err)
			}
			return tabs
		}
		serial := run(tinyRunner(1))
		r := tinyRunner(4)
		probe := &overlapProbe{watch: map[string]bool{"competitive": true, "collaborative": true}}
		if f.ID == "4" {
			probe.watch = map[string]bool{"standalone-gpu": true, "standalone-pim": true}
		}
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
// the suite order, never on map iteration, and each co-runner's row
// averages its own block of speedups. The inputs are chosen so any other
// summation order changes the float result.
func TestReduceCoRunSumsInSuiteOrder(t *testing.T) {
	suite := []string{"G1", "G2", "G3", "G4"}
	coRunners := []string{"none", "P1"}
	speedups := []float64{1e16, 1, -1e16, 1, 0.1, 0.2, 0.3, 0.4}
	for rep := 0; rep < 50; rep++ {
		c := reduceCoRun(suite, coRunners, speedups)
		for i, co := range coRunners {
			want := stats.Mean(speedups[i*len(suite) : (i+1)*len(suite)])
			if got := c.value(co, "avg speedup"); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rep %d: avg speedup of %s = %v, want the suite-order mean %v", rep, co, got, want)
			}
		}
		if !slices.Equal(c.Points, coRunners) {
			t.Fatalf("rows %v, want one per co-runner in order %v", c.Points, coRunners)
		}
		if got := c.value("P1", "avg speedup"); math.Abs(got-0.25) > 1e-12 {
			t.Fatalf("P1 row = %v, want the mean of its own four speedups 0.25", got)
		}
	}
}

// TestSyntheticFiguresMatchGolden pins the rendering of every figure that
// is not a study without running a simulation: from synthetic raw
// results (a Sweep, a Characterization, co-run speedups, CollabResults)
// Figs. 4, 5, 6, 8, 10, 11 and 13 must print exactly the committed text.
func TestSyntheticFiguresMatchGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/figures_synthetic.txt")
	if err != nil {
		t.Fatal(err)
	}
	frac := func(x float64) float64 { return x - math.Floor(x) }
	gpus, pims := []string{"G8", "G10", "G6"}, []string{"P1", "P2"}
	c := &Characterization{PerKernel: map[string]map[string]Standalone{}}
	n := 0
	for _, g := range []struct {
		name string
		ids  []string
	}{{"GPU-20", gpus}, {"GPU-2", gpus}, {"PIM", pims}} {
		c.Groups, c.ids = append(c.Groups, g.name), append(c.ids, g.ids)
		c.PerKernel[g.name] = map[string]Standalone{}
		for _, id := range g.ids {
			n++
			x := float64(n)
			c.PerKernel[g.name][id] = Standalone{Cycles: uint64(1000 * x), NoCRate: 2000 * frac(x*0.37),
				MCRate: 1500 * frac(x*0.53), BLP: 1 + 15*frac(x*0.29), RBHR: frac(x * 0.61)}
		}
	}
	s := &Sweep{Policies: []string{"fcfs", "mem-first", "f3fs"}, Modes: bothModes, GPUIDs: gpus, PIMIDs: pims}
	n = 0
	for _, m := range s.Modes {
		for _, p := range s.Policies {
			for _, g := range s.GPUIDs {
				for _, k := range s.PIMIDs {
					n++
					x := float64(n)
					gs, ps := 0.1+0.8*frac(x*0.618), 0.05+0.9*frac(x*0.414)
					s.Cells = append(s.Cells, Pair{GPUID: g, PIMID: k, Policy: p, Mode: m,
						GPUSpeedup: gs, PIMSpeedup: ps, Fairness: stats.FairnessIndex(gs, ps), Throughput: gs + ps,
						MemArrivalNorm: frac(x * 0.271), Switches: uint64(10 + n*7%23),
						ConflictsPerSwitch: 7 * frac(x*0.33), DrainPerSwitch: 12 * frac(x*0.77)})
				}
			}
		}
	}
	var collab []CollabResult
	for i, p := range []string{"fcfs", "gather-issue", "f3fs"} {
		for j, m := range bothModes {
			x := float64(1 + i*2 + j)
			collab = append(collab, CollabResult{Policy: p, Mode: m, Speedup: 1.2 * frac(x*0.713), Ideal: 1 + frac(x*0.2)})
		}
	}
	tabs := []*Table{c.table(), reduceCoRun([]string{"G1", "G2", "G3"}, []string{"none", "G4", "P1"},
		[]float64{0.98, 0.91, 0.87, 0.8, 0.7, 0.6, 0.3, 0.2, 0.17})}
	for _, id := range []string{"6", "8", "10"} {
		f, _ := FigureByID(id)
		ts, err := f.Reduce(s)
		if err != nil {
			t.Fatal(id, err)
		}
		tabs = append(tabs, ts...)
	}
	tabs = append(tabs, collabTable(collab))
	ts, err := s.intensitySlice()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tab := range append(tabs, ts...) {
		got.WriteString(tab.String())
	}
	if got.String() != string(want) {
		t.Errorf("synthetic figures render\n%s\nwant\n%s", got.String(), want)
	}
}

// TestExperimentsIndexCoversRegistry: EXPERIMENTS.md's index has one row
// per registry figure, carrying its ID and title, and no row for a figure
// the registry lacks.
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
	_, rows, _ := strings.Cut(index, "\n|---|---|---|\n")
	if n := strings.Count("\n"+rows, "\n| `"); n != len(Figures) {
		t.Errorf("EXPERIMENTS.md index lists %d figures, want the %d registry figures", n, len(Figures))
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
