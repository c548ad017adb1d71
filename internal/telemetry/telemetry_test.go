package telemetry

import (
	"bytes"
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
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	var col *Collector
	col.Publish([]MetricPoint{{Name: "x"}})
	if col.Metrics() != nil || col.NoC() != nil {
		t.Fatal("nil collector should publish nothing")
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
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("shared/counter").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	var gaugeSum int64
	for i := 0; i < 4; i++ {
		gaugeSum += reg.Gauge(Name("gauge", i, "v")).Value()
	}
	if gaugeSum != goroutines*perG {
		t.Fatalf("gauge sum = %d, want %d", gaugeSum, goroutines*perG)
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

	metrics := []MetricPoint{
		{Name: "mc0/activates", Kind: "counter", Value: 17},
		{Name: "mc0/drain", Kind: "histogram", Value: 12, Count: 1, Sum: 12},
		{Name: "mc0/queue", Kind: "gauge", Value: -3},
	}

	samples := []Snapshot{
		{GPUCycle: 100, DRAMCycle: 75,
			Channels: []ChannelSample{{MemQ: 3, PIMQ: 60, Mode: "MEM", RBHR: 0.5}},
			Apps:     []AppSample{{Injected: 10, Completed: 5}}},
		{GPUCycle: 200, DRAMCycle: 150,
			Channels: []ChannelSample{{MemQ: 1, PIMQ: 64, Mode: "PIM", BLP: 2.5}},
			Apps:     []AppSample{{Injected: 25, Completed: 19, StallCycles: 4}}},
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, m, metrics, samples); err != nil {
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
	if !reflect.DeepEqual(gotMetrics, metrics) {
		t.Fatalf("metrics round-trip:\n got %+v\nwant %+v", gotMetrics, metrics)
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

// TestCollectorChannels checks the collector of a run: nothing is
// published before the run ends, and NoC answers from the published
// points.
func TestCollectorChannels(t *testing.T) {
	c := NewCollector(256, 16)
	if len(c.Metrics()) != 0 || c.NoC().Injected.Value() != 0 {
		t.Fatal("collector has metrics before the run published any")
	}
	c.Publish([]MetricPoint{
		{Name: Name("mc", 0, "activates"), Kind: "counter", Value: 9},
		{Name: "noc/rejected", Kind: "counter", Value: 3},
		{Name: "noc/injected", Kind: "counter", Value: 40},
	})
	if len(c.Metrics()) != 3 {
		t.Fatalf("published %d points, want 3", len(c.Metrics()))
	}
	if noc := c.NoC(); noc.Injected.Value() != 40 || noc.Rejected.Value() != 3 {
		t.Fatalf("NoC() = %d/%d, want 40/3", noc.Injected.Value(), noc.Rejected.Value())
	}
}

// TestExportStableOrder: published points come out in name order, then
// kind — channel 10 sorts between channels 1 and 2 — whatever order the
// run listed them in.
func TestExportStableOrder(t *testing.T) {
	c := NewCollector(0, 0)
	var points []MetricPoint
	for _, ch := range []int{2, 10, 0, 1} {
		points = append(points, MetricPoint{Name: Name("mc", ch, "activates"), Kind: "counter"})
	}
	points = append(points, MetricPoint{Name: "mc1/activates", Kind: "bogus"})
	c.Publish(points)
	var got []string
	for _, p := range c.Metrics() {
		got = append(got, p.Name+" "+p.Kind)
	}
	want := []string{"mc0/activates counter", "mc1/activates bogus", "mc1/activates counter", "mc10/activates counter", "mc2/activates counter"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("published order %v, want %v", got, want)
	}
}
