package bench

import (
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{600, 0.9, true}, // p99 of 600 has only six samples beyond it
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := TailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := Percentile(xs, 0.9); got != 91 {
		t.Errorf("p90 of 1..100 = %v, want 91 (ten samples beyond it)", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.New", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "System.Run", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},      // clipped to its parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	// Children cover [10,50] and [90,100] of the root: 50 of its 100.
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := SelfTimeByName(spans)["cell"]; got != 50 {
		t.Errorf("self time by name = %d, want 50", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 1, 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded span %d / %v", id, tr.Spans())
	}
	live := NewTracer()
	a := live.Start("a", 7, 0)
	b := live.Start("b", 7, a)
	live.End(b)
	live.End(a)
	spans := live.Spans()
	if len(spans) != 2 || spans[1].Parent != a || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Errorf("spans = %+v", spans)
	}
}

func TestHostMeter(t *testing.T) {
	var none *hostMeter
	if none.lap() != 1 {
		t.Errorf("a nil meter must report a slowness of 1")
	}
	m, err := newHostMeter()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Every element of the ring lies on the one cycle.
	seen, at := 0, uint32(0)
	for ok := true; ok; ok = at != 0 {
		at = m.ring[at]
		seen++
	}
	if seen != len(m.ring) {
		t.Errorf("the chase ring's cycle has %d of %d elements", seen, len(m.ring))
	}
	m.last = 3
	if got := m.lap(); got != (3+m.last)/2 || len(m.Laps) != 1 || m.Laps[0] != got {
		t.Errorf("lap() = %v with the probes at 3 and %v; laps %v", got, m.last, m.Laps)
	}
	if allocs := testing.AllocsPerRun(5, func() { m.probe() }); allocs != 0 {
		t.Errorf("the probe allocates %v objects a call; it must leave the heap alone", allocs)
	}
}

func TestLayerAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/memctrl.(*Controller).Tick", "repro/internal/sim.(*System).stepEvent"}, "memctrl"},
		{[]string{"repro/internal/serve/store.(*Store).Put", "repro/internal/serve.(*Server).runJob"}, "serve.store"},
		{[]string{"repro/internal/sched.(*FRFCFS).DesiredMode"}, "policy"},
		{[]string{"repro/internal/core.(*F3FS).OnIssue"}, "policy"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/workload.(*GPUGen).Next"}, LayerMalloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, LayerGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/cache.(*Slice).Access"}, LayerGC},
		{[]string{"runtime.mapaccess1_fast64", "repro/internal/cache.(*Slice).Fill"}, LayerOther},
		{[]string{"slices.SortFunc[go.shape.[]repro/internal/x.T]", "repro/internal/noc.(*Network).Tick"}, LayerOther},
		{[]string{"repro/bench.(*simWorkload).pass"}, LayerOther},
		{nil, LayerOther},
	} {
		if got := LayerOf(c.stack); got != c.want {
			t.Errorf("LayerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	known := map[string]bool{}
	for _, l := range CPULayers {
		known[l] = true
	}
	for pkg, layer := range layerOfPackage {
		if !known[layer] {
			t.Errorf("package %s maps to layer %q, which CPULayers lacks", pkg, layer)
		}
	}
}

// TestProfileSharesSumToOne profiles real simulator work through the
// in-tree pprof decoder.
func TestProfileSharesSumToOne(t *testing.T) {
	w, err := newSimWorkload(PIMLockstep, DefaultSeed, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := profiled(func() { w.pass(nil, 0, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler delivered no samples in this environment")
	}
	shares := LayerShares(samples)
	var sum, simulator float64
	for layer, s := range shares {
		sum += s
		if layer != LayerGC && layer != LayerMalloc && layer != LayerOther {
			simulator += s
		}
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("shares sum to %v, want 1 ± 0.02: %v", sum, shares)
	}
	if simulator == 0 {
		t.Errorf("no sample landed in a simulator package: %v", shares)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name        string
		olds, news  []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same", steady, []float64{100, 102, 101, 99, 100}, true, 0.10, Same},
		{"worse beyond the bound", steady, []float64{115, 116, 114, 115, 117}, true, 0.10, Worse},
		{"worse within the bound", steady, []float64{105, 106, 104, 105, 107}, true, 0.10, Same},
		{"better, lower is better", steady, []float64{90, 91, 89, 90, 92}, true, 0.10, Better},
		{"better, higher is better", steady, []float64{110, 111, 109, 110, 112}, false, 0.10, Better},
		{"worse, higher is better", steady, []float64{85, 86, 84, 85, 87}, false, 0.10, Worse},
		{"noisy and overlapping", []float64{100, 130, 80, 120, 90}, []float64{125, 85, 135, 95, 128}, true, 0.10, Unresolved},
		{"noisy but every run better", []float64{100, 130, 110, 120, 140}, []float64{60, 70, 90, 50, 80}, true, 0.10, Better},
		{"noisy and every run worse", []float64{60, 70, 90, 50, 80}, []float64{100, 130, 110, 120, 140}, true, 0.10, Worse},
	} {
		if _, _, _, got := judge(c.olds, c.news, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsWorseAndFailedShare(t *testing.T) {
	spec := &Spec{
		Workloads: []WorkloadSpec{{Name: "w"}},
		EndToEnd:  []MetricSpec{{Name: "cell_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	set := func(failed int, values ...float64) []Report {
		var out []Report
		for _, v := range values {
			out = append(out, Report{Workload: "w", Attempted: 100, Failed: failed,
				Metrics: map[string]Metric{"cell_p50_ms": {Value: v, Unit: "ms"}}})
		}
		return out
	}
	if rows, failed := Compare(spec, set(0, 10, 10.1, 9.9), set(0, 10, 10.2, 9.8)); failed || rows[0].Verdict != Same {
		t.Errorf("A/A compare: failed=%v rows=%+v", failed, rows)
	}
	if rows, failed := Compare(spec, set(0, 10, 10.1, 9.9), set(0, 12, 12.1, 11.9)); !failed || rows[0].Verdict != Worse {
		t.Errorf("20%% slower: failed=%v rows=%+v", failed, rows)
	}
	rows, failed := Compare(spec, set(0, 10, 10.1, 9.9), set(1, 10, 10.1, 9.9))
	if !failed || rows[len(rows)-1].Metric != "failed_share" || rows[len(rows)-1].Verdict != Worse {
		t.Errorf("more failed operations: failed=%v rows=%+v", failed, rows)
	}
}

// loadSpec reads the repository's BENCHMARK.json.
func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyRun runs a workload end to end at a size that takes a second.
func tinyRun(t *testing.T, workload string, trace bool, expected map[string]string) *Report {
	t.Helper()
	rep, err := Run(Options{
		Spec: loadSpec(t), Workload: workload, Seed: DefaultSeed, Seconds: 0.2, Trace: trace,
		OutDir: t.TempDir(), Size: 0.05, Expected: expected,
	})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	return rep
}

// declared returns the names and units BENCHMARK.json declares.
func declared(t *testing.T, specs []MetricSpec) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range specs {
		if _, dup := out[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %s twice", m.Name)
		}
		out[m.Name] = m.Unit
	}
	return out
}

// TestWorkloadsEmitDeclaredMetrics runs every workload, traced and not,
// and holds the emitted metric names and units to BENCHMARK.json.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", names, Workloads)
	}
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w, trace, nil)
			want := declared(t, spec.EndToEnd)
			if trace {
				want = declared(t, spec.PerLayer)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics differ from BENCHMARK.json\n got: %v\nwant: %v", w, trace, keys(got), keys(want))
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			if trace {
				if got := layersOf(rep.Unexercised); !reflect.DeepEqual(got, unexercisedLayers[w]) {
					t.Errorf("%s: no figures for layers %v, want none for %v (%v)", w, got, unexercisedLayers[w], rep.Unexercised)
				}
				for _, name := range rep.Unexercised {
					if rep.Metrics[name].Value != 0 {
						t.Errorf("%s: unexercised %s = %v, want 0", w, name, rep.Metrics[name].Value)
					}
				}
				var sum float64
				for name, m := range rep.Metrics {
					if len(name) > 9 && name[len(name)-9:] == "cpu_share" {
						sum += m.Value
					}
				}
				if samples := rep.Detail["cpu_profile_samples"].Value; samples > 0 && math.Abs(sum-1) > 0.02 {
					t.Errorf("%s: cpu shares sum to %v over %v samples", w, sum, samples)
				}
			}
		}
	}
}

// unexercisedLayers lists, per workload, the layers whose metrics the
// traced run leaves at 0 because the workload does not use them. A layer's
// CPU share always comes from the profile and is not in this list.
var unexercisedLayers = map[string][]string{
	CoexecSaturated:  {"journal", "serve", "serve.store"},
	StandaloneSparse: {"experiments", "journal", "serve", "serve.store"},
	PIMLockstep:      {"cache", "experiments", "journal", "serve", "serve.store"},
	ServeMixed:       {"addrmap", "cache", "dram", "experiments", "gpu", "memctrl", "noc", "policy", "sim", "workload"},
}

// layersOf reduces metric names to their sorted, distinct layers.
func layersOf(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		layer := n[:strings.LastIndex(n, ".")]
		if !seen[layer] {
			seen[layer] = true
			out = append(out, layer)
		}
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" ["+v+"]")
	}
	sort.Strings(out)
	return out
}

// TestCorruptExpectedDigestFails shows check (b) at work: one wrong
// committed digest makes the run incorrect, which the command turns into
// a non-zero exit.
func TestCorruptExpectedDigestFails(t *testing.T) {
	w, err := newSimWorkload(StandaloneSparse, DefaultSeed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	expected := map[string]string{}
	for i, o := range w.pass(nil, 0, nil).Outcomes {
		expected[w.cells[i].Name] = o.Digest
	}
	if rep := tinyRun(t, StandaloneSparse, false, expected); !rep.Correct {
		t.Fatalf("run against its own digests is incorrect: %v", rep.Notes)
	}
	expected[w.cells[3].Name] = "0000" + expected[w.cells[3].Name][4:]
	rep := tinyRun(t, StandaloneSparse, false, expected)
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("corrupt digest: correct=%v failed=%d notes=%v", rep.Correct, rep.Failed, rep.Notes)
	}
}

// TestCommittedExpectedDigests holds bench/expected to the simulator: a
// change to any simulated statistic of any benchmark cell fails here.
func TestCommittedExpectedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark cell once at full size")
	}
	for _, name := range Workloads {
		if name == ServeMixed {
			continue
		}
		e, err := loadExpected(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := newSimWorkload(name, DefaultSeed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Cells) != len(w.cells) || e.Seed != DefaultSeed {
			t.Errorf("%s: expected file has %d cells at seed %d, workload has %d", name, len(e.Cells), e.Seed, len(w.cells))
		}
		chk := &checker{cells: w.cells, expected: e.Cells}
		chk.check(w.pass(nil, 0, nil))
		if chk.Failed != 0 {
			t.Errorf("%s: %d cells differ from bench/expected (pimbench -write-expected re-baselines): %v", name, chk.Failed, chk.Notes)
		}
	}
}
