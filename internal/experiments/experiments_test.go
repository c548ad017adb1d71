package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
)

func quickRunner() *Runner {
	cfg := config.Scaled()
	cfg.MaxGPUCycles = 2_000_000
	r := NewRunner(cfg, 0.25)
	r.Parallel = 4
	return r
}

func TestStandaloneCaching(t *testing.T) {
	r := quickRunner()
	a, err := r.StandaloneGPU("G8")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.StandaloneGPU("G8")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("standalone result not cached deterministically")
	}
	if a.Cycles == 0 {
		t.Error("standalone run recorded zero cycles")
	}
}

func TestCompetitivePairMetrics(t *testing.T) {
	r := quickRunner()
	p, err := r.Competitive("G8", "P2", "f3fs", config.VC2)
	if err != nil {
		t.Fatal(err)
	}
	if p.GPUSpeedup <= 0 || p.PIMSpeedup <= 0 {
		t.Fatalf("speedups: %+v", p)
	}
	if p.GPUSpeedup > 1.2 || p.PIMSpeedup > 1.2 {
		t.Errorf("contended speedups exceed standalone: %+v", p)
	}
	if p.Fairness <= 0 || p.Fairness > 1 {
		t.Errorf("fairness out of range: %v", p.Fairness)
	}
	if p.Throughput <= 0 || p.Throughput > 2.2 {
		t.Errorf("throughput out of range: %v", p.Throughput)
	}
}

func TestCharacterizationShape(t *testing.T) {
	r := quickRunner()
	c, err := r.Characterize(context.Background(), []string{"G4", "G10", "G15"}, []string{"P1"})
	if err != nil {
		t.Fatal(err)
	}
	tab := c.table()
	// PIM executes on all banks in lockstep: its BLP must dominate the
	// GPU groups (Fig. 4c shows a single bar at the bank count).
	pimBLP := tab.value("PIM blp", "median")
	if pimBLP < 12 {
		t.Errorf("PIM median BLP = %.1f, want near 16", pimBLP)
	}
	// The compute-intensive G10 must sit at the bottom of the MC rate
	// range; the DRAM-heavy G15 at the top.
	groupAll := c.Groups[0]
	if c.PerKernel[groupAll]["G15"].MCRate <= c.PerKernel[groupAll]["G10"].MCRate {
		t.Error("G15 (nn) should out-rate G10 (huffman) at the MC")
	}
	if tab.String() == "" {
		t.Error("empty table")
	}
}

func TestCollaborativeQKVIsLongerStage(t *testing.T) {
	r := quickRunner()
	qkv, mha, err := r.baselines(context.Background(), llmCell("f3fs", r.at(config.VC2)))
	if err != nil {
		t.Fatal(err)
	}
	if qkv.Cycles <= mha.Cycles {
		t.Errorf("QKV (%d) must be the longer stage vs MHA (%d), per Sec. VI-B", qkv.Cycles, mha.Cycles)
	}
}

func TestCollaborativeSpeedupBounds(t *testing.T) {
	r := quickRunner()
	res, err := r.Collaborative("f3fs", config.VC2, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Fatalf("no speedup measured: %+v", res)
	}
	if res.Speedup > res.Ideal+0.05 {
		t.Errorf("speedup %.3f exceeds ideal %.3f", res.Speedup, res.Ideal)
	}
}

func TestSweepAndReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep takes a second; skipped in -short mode")
	}
	r := quickRunner()
	sweep, err := r.RunSweep([]string{"G8"}, []string{"P2"},
		[]string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"},
		[]config.VCMode{config.VC1, config.VC2})
	if err != nil {
		t.Fatal(err)
	}
	tables := func(id string) []*Table {
		f, _ := FigureByID(id)
		tabs, err := f.Reduce(sweep)
		if err != nil {
			t.Fatal(id, err)
		}
		return tabs
	}
	ft := tables("8")[0]
	for _, mode := range sweep.Modes {
		for _, policy := range sweep.Policies {
			if ft.value(policy, "ST/"+mode.String()) <= 0 {
				t.Errorf("%s/%s: zero throughput", policy, mode)
			}
		}
	}
	so := tables("10")[0]
	// FCFS normalizes to itself.
	if got := so.value("fcfs", "sw/VC1"); got < 0.99 || got > 1.01 {
		t.Errorf("FCFS self-normalization = %v", got)
	}
	// F3FS's whole point: far fewer switches than FCFS (Fig. 10a).
	if got := so.value("f3fs", "sw/VC2"); got >= 0.5 {
		t.Errorf("F3FS switches/FCFS = %.3f, want < 0.5", got)
	}
	ar := tables("6")[0]
	if ar.value("fr-fcfs", "VC1") <= 0 {
		t.Error("zero arrival rate in Fig. 6 reduction")
	}
	is := tables("13")
	if is[1].value("f3fs", "G8-FI") <= 0 {
		t.Error("zero fairness in Fig. 13 slice")
	}
	for _, tab := range []*Table{ft, so, ar, is[0], is[1]} {
		if tab.String() == "" {
			t.Error("empty rendering")
		}
	}
}

func TestSwitchOverheadsRequiresFCFS(t *testing.T) {
	s := &Sweep{Policies: []string{"f3fs"}}
	if _, err := s.switchOverheads(); err == nil {
		t.Error("missing fcfs accepted")
	}
}

// runStudy runs the study of registry figure id on G8 x P2.
func runStudy(r *Runner, id string, policies ...string) (*Table, error) {
	f, _ := FigureByID(id)
	tabs, err := f.tables(context.Background(), r, []string{"G8"}, []string{"P2"}, policies)
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// value reads one cell of a table by point label (runs of spaces inside
// and around it ignored) and column name.
func (t *Table) value(point, name string) float64 {
	i := slices.IndexFunc(t.Points, func(l string) bool { return strings.Join(strings.Fields(l), " ") == point })
	j := slices.Index(t.Names, name)
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("table has no %s at point %q: %+v", name, point, t))
	}
	return t.Rows[i][j]
}

func TestQueueSensitivityRuns(t *testing.T) {
	tab, err := runStudy(quickRunner(), "14b")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Points) != 3 || tab.value("256", "ST") <= 0 {
		t.Fatalf("queue sensitivity: %+v", tab)
	}
}

func TestPrioritySweepShiftsService(t *testing.T) {
	tab, err := runStudy(quickRunner(), "priority")
	if err != nil {
		t.Fatal(err)
	}
	// Raising the MEM priority must not reduce the GPU kernel's speedup
	// share.
	share := func(ratio string) float64 {
		if st := tab.value(ratio, "ST"); st != 0 {
			return tab.value(ratio, "gpu-spd") / st
		}
		return 0
	}
	if share("4:1") < share("1:4") {
		t.Errorf("GPU share fell as MEM priority rose: %.3f (1:4) -> %.3f (4:1)", share("1:4"), share("4:1"))
	}
}

func TestEnergySweep(t *testing.T) {
	r := quickRunner()
	tab, err := runStudy(r, "energy", "fcfs", "f3fs")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"fcfs", "f3fs"} {
		if tab.value(p, "total-uJ") <= 0 || tab.value(p, "nJ/req") <= 0 {
			t.Errorf("%s: degenerate energy %+v", p, tab)
		}
	}
	// FCFS thrashes rows relative to F3FS on the same work: it must not
	// be cheaper per request.
	if fcfs, f3fs := tab.value("fcfs", "nJ/req"), tab.value("f3fs", "nJ/req"); fcfs < f3fs {
		t.Errorf("fcfs %.2f nJ/req cheaper than f3fs %.2f", fcfs, f3fs)
	}
	if _, err := runStudy(r, "energy", "nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDualBufferAblation(t *testing.T) {
	tab, err := runStudy(quickRunner(), "dual")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"fcfs", "f3fs"} {
		// The dual buffer's whole effect: switch-induced conflicts
		// disappear.
		if v := tab.value(p, "dual-conf/sw"); v != 0 {
			t.Errorf("%s: dual-buffer conflicts/switch = %v, want 0", p, v)
		}
		if tab.value(p, "conf/sw") == 0 {
			t.Errorf("%s: shared-buffer conflicts/switch = 0; scenario too gentle", p)
		}
	}
	// The frequent switcher (FCFS) must gain more throughput from the
	// dual buffer than the rare switcher (F3FS).
	gain := func(p string) float64 { return tab.value(p, "dual-ST") - tab.value(p, "ST") }
	if gain("fcfs") <= gain("f3fs") {
		t.Errorf("fcfs gain %.3f not above f3fs gain %.3f", gain("fcfs"), gain("f3fs"))
	}
}

func TestUnknownKernelAndPolicyErrors(t *testing.T) {
	r := quickRunner()
	if _, err := r.Competitive("G99", "P1", "f3fs", config.VC1); err == nil {
		t.Error("unknown GPU kernel accepted")
	}
	if _, err := r.Competitive("G8", "P99", "f3fs", config.VC1); err == nil {
		t.Error("unknown PIM kernel accepted")
	}
	if _, err := r.Competitive("G8", "P1", "nope", config.VC1); err == nil {
		t.Error("unknown policy accepted")
	}
}
