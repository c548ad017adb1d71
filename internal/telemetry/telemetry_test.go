package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every metric method on nil receivers — the
// disabled hot path must be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram state")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	if r.Export() != nil {
		t.Fatal("nil registry export")
	}
	var col *Collector
	if col.Channel(0) != nil || col.NoC() != nil {
		t.Fatal("nil collector should yield nil handles")
	}
	var s *Sampler
	s.Record(Snapshot{})
	if s.Snapshots() != nil || s.Dropped() != 0 || s.Interval() != 0 {
		t.Fatal("nil sampler state")
	}
	var m *Manifest
	m.Finish(0, 0, false, 0)
	if m.Summary() != "<no manifest>" {
		t.Fatal("nil manifest summary")
	}
}

// TestRegistryConcurrency hammers get-or-create and updates from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("shared/counter").Inc()
				reg.Gauge(Name("gauge", g%4, "v")).Add(1)
				reg.Histogram("shared/hist", []float64{1, 10, 100}).Observe(float64(i % 20))
				_ = reg.Export()
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("shared/counter").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Histogram("shared/hist", nil).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var gaugeSum int64
	for i := 0; i < 4; i++ {
		gaugeSum += reg.Gauge(Name("gauge", i, "v")).Value()
	}
	if gaugeSum != goroutines*perG {
		t.Fatalf("gauge sum = %d, want %d", gaugeSum, goroutines*perG)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	for _, v := range []float64{1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	bounds, counts, n, sum, min, max := h.Snapshot()
	if !reflect.DeepEqual(bounds, []float64{10, 100}) {
		t.Fatalf("bounds = %v", bounds)
	}
	// SearchFloat64s: <=10 in bucket 0, (10,100] in bucket 1, rest overflow.
	if !reflect.DeepEqual(counts, []uint64{3, 1, 1}) {
		t.Fatalf("counts = %v", counts)
	}
	if n != 5 || sum != 1066 || min != 1 || max != 1000 {
		t.Fatalf("n=%d sum=%g min=%g max=%g", n, sum, min, max)
	}
	if got := h.Mean(); got != 1066.0/5 {
		t.Fatalf("mean = %g", got)
	}
}

// TestSamplerRing checks bounded-ring semantics: the most recent ringCap
// snapshots are kept, chronological order is preserved, evictions are
// counted.
func TestSamplerRing(t *testing.T) {
	s := NewSampler(100, 4)
	if s.Interval() != 100 {
		t.Fatalf("interval = %d", s.Interval())
	}
	for i := 1; i <= 6; i++ {
		s.Record(Snapshot{GPUCycle: uint64(i * 100)})
	}
	snaps := s.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("kept %d snapshots, want 4", len(snaps))
	}
	for i, want := range []uint64{300, 400, 500, 600} {
		if snaps[i].GPUCycle != want {
			t.Fatalf("snapshot %d at cycle %d, want %d", i, snaps[i].GPUCycle, want)
		}
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
}

func TestSamplerDefaults(t *testing.T) {
	s := NewSampler(0, 0)
	if s.Interval() != DefaultInterval {
		t.Fatalf("interval = %d, want %d", s.Interval(), DefaultInterval)
	}
}

// TestJSONLRoundTrip writes a full capture and reads it back.
func TestJSONLRoundTrip(t *testing.T) {
	m := NewManifest(struct{ A int }{7}, 42, 8, 20)
	m.Policy = "f3fs"
	m.VCMode = "VC2"
	m.Scale = 0.25
	m.Kernels = []string{"G8/hotspot", "P1/stream-add"}
	m.Finish(1000, 750, false, 3)

	reg := NewRegistry()
	reg.Counter("mc0/activates").Add(17)
	reg.Gauge("mc0/queue").Set(-3)
	reg.Histogram("mc0/drain", DrainBuckets()).Observe(12)

	samples := []Snapshot{
		{GPUCycle: 100, DRAMCycle: 75,
			Channels: []ChannelSample{{MemQ: 3, PIMQ: 60, Mode: "MEM", RBHR: 0.5}},
			Apps:     []AppSample{{Injected: 10, Completed: 5}}},
		{GPUCycle: 200, DRAMCycle: 150,
			Channels: []ChannelSample{{MemQ: 1, PIMQ: 64, Mode: "PIM", BLP: 2.5}},
			Apps:     []AppSample{{Injected: 25, Completed: 19, StallCycles: 4}}},
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m, reg, samples); err != nil {
		t.Fatal(err)
	}
	gotM, gotMetrics, gotSamples, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m.start = time.Time{} // process-local anchor; not serialized
	if !reflect.DeepEqual(gotM, m) {
		t.Fatalf("manifest round-trip:\n got %+v\nwant %+v", gotM, m)
	}
	if !reflect.DeepEqual(gotMetrics, reg.Export()) {
		t.Fatalf("metrics round-trip:\n got %+v\nwant %+v", gotMetrics, reg.Export())
	}
	if !reflect.DeepEqual(gotSamples, samples) {
		t.Fatalf("samples round-trip:\n got %+v\nwant %+v", gotSamples, samples)
	}
}

// TestJSONLSkipsUnknownRecords keeps the format forward-compatible.
func TestJSONLSkipsUnknownRecords(t *testing.T) {
	in := bytes.NewBufferString(`{"type":"future-thing","payload":1}
{"type":"sample","sample":{"gpu_cycle":5}}
`)
	_, _, samples, err := ReadJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].GPUCycle != 5 {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestHashConfig(t *testing.T) {
	type cfg struct{ A, B int }
	h1 := HashConfig(cfg{1, 2})
	h2 := HashConfig(cfg{1, 2})
	h3 := HashConfig(cfg{1, 3})
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	if h1 == h3 {
		t.Fatal("hash insensitive to config change")
	}
	if len(h1) != 16 {
		t.Fatalf("hash length = %d", len(h1))
	}
	if HashConfig(make(chan int)) != "unhashable" {
		t.Fatal("unmarshalable config should hash to sentinel")
	}
}

func TestEnableSwitch(t *testing.T) {
	defer Enable(false)
	if Enabled() {
		t.Fatal("telemetry enabled by default")
	}
	Enable(true)
	if !Enabled() {
		t.Fatal("Enable(true) not visible")
	}
	Enable(false)
	if Enabled() {
		t.Fatal("Enable(false) not visible")
	}
}

func TestCollectorChannels(t *testing.T) {
	c := NewCollector(4, 256, 16)
	for ch := 0; ch < 4; ch++ {
		c.Channel(ch).MemModeCycles.Add(uint64(ch + 1))
	}
	for ch := 0; ch < 4; ch++ {
		name := Name("mc", ch, "mem_mode_cycles")
		if got := c.Registry.Counter(name).Value(); got != uint64(ch+1) {
			t.Fatalf("%s = %d, want %d", name, got, ch+1)
		}
	}
	c.NoC().Injected.Inc()
	if c.Registry.Counter("noc/injected").Value() != 1 {
		t.Fatal("noc counter not registered")
	}
	// Every handle-backed metric appears in the export.
	points := c.Registry.Export()
	kinds := map[string]int{}
	for _, p := range points {
		kinds[p.Kind]++
	}
	wantCounters := 4*9 + 4 // 9 per-channel counters + 4 noc
	if kinds["counter"] != wantCounters || kinds["histogram"] != 4 {
		t.Fatalf("export kinds = %v", kinds)
	}
}

func TestExportStableOrder(t *testing.T) {
	reg := NewRegistry()
	for i := 3; i >= 0; i-- {
		reg.Counter(fmt.Sprintf("c%d", i)).Inc()
	}
	points := reg.Export()
	for i := 1; i < len(points); i++ {
		if points[i-1].Name > points[i].Name {
			t.Fatalf("export unsorted: %s before %s", points[i-1].Name, points[i].Name)
		}
	}
}
