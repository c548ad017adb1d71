// Package telemetry is the simulator's observability layer: an epoch
// sampler that snapshots per-channel and per-app state into a bounded
// in-memory ring, the metric points a run publishes when it ends, a small
// counter/gauge registry for the service layer, and a run manifest
// identifying every simulation (config hash, seed, git revision, wall
// time, allocation footprint).
//
// Collection is off by default and gated by a single process-wide switch
// (Enable). The simulator layers count their events in plain fields of
// their own whether or not a collector is attached; a collector only adds
// the sampler, which runs at epoch granularity, and the end-of-run metric
// points, so a run without one pays nothing for observability.
//
// The package is self-contained (stdlib only, no simulator imports) so
// any layer — sim, the experiment runner, the service, the CLIs — can
// depend on it without cycles.
package telemetry

import (
	"sort"
	"sync/atomic"
)

var enabled atomic.Bool

// Enable flips the process-wide collection switch. Call it before
// building simulation systems; systems built while disabled carry no
// collector.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether telemetry collection is on.
func Enabled() bool { return enabled.Load() }

// Collector bundles one run's telemetry: the epoch sampler ring and the
// metric points the run publishes when it ends. A Collector belongs to
// exactly one sim.System; concurrent simulations each carry their own, so
// parallel sweeps never share metric state.
type Collector struct {
	Sampler *Sampler

	metrics []MetricPoint
}

// MetricPoint is one exported metric value.
type MetricPoint struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "histogram"
	Value float64 `json:"value"`
	// Count and Sum are set for histogram-kind points, a total over Count
	// events (Value carries the mean, Sum/Count).
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
}

// NewCollector builds a collector. interval is the sampling epoch in GPU
// cycles (0 picks the default); ringCap bounds the sample ring (0 picks
// the default).
func NewCollector(interval uint64, ringCap int) *Collector {
	return &Collector{Sampler: NewSampler(interval, ringCap)}
}

// Publish stores a finished run's metric points, sorted by name then
// kind. The simulator calls it once, after the run's final accounting.
func (c *Collector) Publish(points []MetricPoint) {
	if c == nil {
		return
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Name != points[j].Name {
			return points[i].Name < points[j].Name
		}
		return points[i].Kind < points[j].Kind
	})
	c.metrics = points
}

// Metrics returns the published metric points (nil before the run ends).
func (c *Collector) Metrics() []MetricPoint {
	if c == nil {
		return nil
	}
	return c.metrics
}

// NoC returns the interconnect's injection counts, read from the points
// sim published as noc/injected and noc/rejected.
func (c *Collector) NoC() *NoCMetrics {
	if c == nil {
		return nil
	}
	m := &NoCMetrics{Injected: &Counter{}, Rejected: &Counter{}}
	for _, p := range c.metrics {
		switch p.Name {
		case "noc/injected":
			m.Injected.Add(uint64(p.Value))
		case "noc/rejected":
			m.Rejected.Add(uint64(p.Value))
		}
	}
	return m
}

// NoCMetrics are the interconnect's accepted and refused injections (the
// backpressure the paper's denial-of-service story is about).
type NoCMetrics struct {
	Injected *Counter
	Rejected *Counter
}
