package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
)

func sampleSweep() *experiments.Sweep {
	s := &experiments.Sweep{
		Policies: []string{"f3fs"},
		Modes:    []config.VCMode{config.VC1},
		GPUIDs:   []string{"G8"},
		PIMIDs:   []string{"P1"},
		Cells: []experiments.Pair{{
			GPUID: "G8", PIMID: "P1", Policy: "f3fs", Mode: config.VC1,
			GPUSpeedup: 0.5, PIMSpeedup: 0.7, Fairness: 0.714, Throughput: 1.2,
			MemArrivalNorm: 0.8, Switches: 42, ConflictsPerSwitch: 1.5, DrainPerSwitch: 12.0,
			AvgMemQ: 3.25, AvgPIMQ: 7.5,
		}},
	}
	return s
}

func TestSweepCSV(t *testing.T) {
	csv := SweepCSV(sampleSweep())
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "vc,policy,gpu,pim") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[0], ",avg_memq,avg_pimq,") {
		t.Errorf("header lacks the queue columns: %s", lines[0])
	}
	for _, want := range []string{"VC1", "f3fs", "G8", "P1", "0.714", "42", "3.2500", "7.5000"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row missing %q: %s", want, lines[1])
		}
	}
}

func TestCollabCSV(t *testing.T) {
	csv := CollabCSV([]experiments.CollabResult{{
		Policy: "f3fs", Mode: config.VC2, Speedup: 0.99, Ideal: 1.6,
		QKVCycles: 100, MHACycles: 50, ConcurrentCycles: 120,
	}})
	if !strings.Contains(csv, "f3fs") || !strings.Contains(csv, "VC2") {
		t.Errorf("csv: %s", csv)
	}
}

func TestCSVEscaping(t *testing.T) {
	if got := csvEscape(`plain`); got != "plain" {
		t.Errorf("plain escaped: %q", got)
	}
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("comma: %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Errorf("quotes: %q", got)
	}
}

func TestSweepJSON(t *testing.T) {
	data, err := SweepJSON(sampleSweep())
	if err != nil {
		t.Fatal(err)
	}
	var records []PairRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(records) != 1 || records[0].Policy != "f3fs" || records[0].Fairness != 0.714 || records[0].AvgPIMQ != 7.5 {
		t.Errorf("records: %+v", records)
	}
}

func TestCharacterizationCSV(t *testing.T) {
	c := &experiments.Characterization{
		PerKernel: map[string]map[string]experiments.Standalone{
			"PIM": {"P1": {Cycles: 1000, NoCRate: 1.5, MCRate: 1.5, BLP: 16, RBHR: 0.9}},
		},
	}
	csv := CharacterizationCSV(c)
	if !strings.Contains(csv, "P1") || !strings.Contains(csv, "16.0000") {
		t.Errorf("csv: %s", csv)
	}
}

func TestBarChartSVG(t *testing.T) {
	chart := BarChart{
		Title:  "test <chart>",
		YLabel: "value",
		Groups: []BarGroup{
			{Label: "a", Bars: []Bar{{Label: "x", Value: 1.0}, {Label: "y", Value: 0.5}}},
			{Label: "b", Bars: []Bar{{Label: "x", Value: 2.0}, {Label: "y", Value: -1}}},
		},
	}
	svg := chart.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if !strings.Contains(svg, "&lt;chart&gt;") {
		t.Error("title not XML-escaped")
	}
	if strings.Count(svg, "<rect") < 5 { // background + 4 bars
		t.Error("missing bar rects")
	}
	// Determinism.
	if svg != chart.SVG() {
		t.Error("SVG rendering not deterministic")
	}
}

func TestEmptyChartStillRenders(t *testing.T) {
	svg := BarChart{Title: "empty"}.SVG()
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("empty chart did not render")
	}
}

func TestFairnessThroughputBars(t *testing.T) {
	fig8, _ := experiments.FigureByID("8")
	tabs, err := fig8.Reduce(sampleSweep())
	if err != nil {
		t.Fatal(err)
	}
	chart := FairnessThroughputBars(tabs[0])
	if len(chart.Groups) != 1 || len(chart.Groups[0].Bars) != 2 {
		t.Fatalf("chart shape: %+v", chart)
	}
	if chart.Groups[0].Bars[0].Value != 0.714 {
		t.Errorf("FI bar = %v", chart.Groups[0].Bars[0].Value)
	}
}

func TestCollabBars(t *testing.T) {
	chart := CollabBars([]experiments.CollabResult{
		{Policy: "f3fs", Mode: config.VC1, Speedup: 0.9},
		{Policy: "f3fs", Mode: config.VC2, Speedup: 1.0},
		{Policy: "fcfs", Mode: config.VC1, Speedup: 0.3},
	})
	if len(chart.Groups) != 2 {
		t.Fatalf("groups = %d", len(chart.Groups))
	}
	if len(chart.Groups[0].Bars) != 2 {
		t.Errorf("f3fs bars = %d", len(chart.Groups[0].Bars))
	}
}
