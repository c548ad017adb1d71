package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DefaultInterval is the sampling epoch in GPU cycles when the caller
// does not choose one.
const DefaultInterval = 2048

// DefaultRingCap bounds the in-memory sample ring when the caller does
// not choose a capacity. At the default interval this covers ~16M GPU
// cycles of history before the ring starts dropping the oldest epochs.
const DefaultRingCap = 8192

// ChannelSample is one channel's state at a sampling instant. Queue
// occupancies and the mode are instantaneous; the remaining fields are
// cumulative since the start of the run, so consumers can difference
// adjacent samples for per-epoch rates.
type ChannelSample struct {
	// MemQ and PIMQ are the instantaneous controller queue occupancies.
	MemQ int `json:"memq"`
	PIMQ int `json:"pimq"`
	// Mode is the mode being serviced ("MEM" or "PIM").
	Mode string `json:"mode"`
	// Switches is the cumulative mode-switch count.
	Switches uint64 `json:"switches"`
	// MemModeCycles/PIMModeCycles/DrainCycles are cumulative DRAM-cycle
	// mode residency (drain cycles overlap the mode being drained from).
	MemModeCycles uint64 `json:"mem_mode_cycles"`
	PIMModeCycles uint64 `json:"pim_mode_cycles"`
	DrainCycles   uint64 `json:"drain_cycles"`
	// RBHR and BLP are the cumulative-to-date MEM row-buffer hit rate
	// and bank-level parallelism.
	RBHR float64 `json:"rbhr"`
	BLP  float64 `json:"blp"`
	// MemQOccupancySum/PIMQOccupancySum/SampledCycles mirror the
	// per-DRAM-cycle occupancy accumulators of stats.Channel, so a
	// consumer can reconstruct exact average occupancies per epoch.
	MemQOccupancySum uint64 `json:"memq_sum"`
	PIMQOccupancySum uint64 `json:"pimq_sum"`
	SampledCycles    uint64 `json:"sampled_cycles"`
}

// AppSample is one application's cumulative progress at a sampling
// instant.
type AppSample struct {
	// Injected counts requests accepted by the interconnect.
	Injected uint64 `json:"injected"`
	// Arrived counts requests that reached a memory-controller queue.
	Arrived uint64 `json:"arrived"`
	// Completed counts fully serviced requests.
	Completed uint64 `json:"completed"`
	// StallCycles counts SM-cycles denied injection by backpressure.
	StallCycles uint64 `json:"stall_cycles"`
}

// Snapshot is one point of the run's time series.
type Snapshot struct {
	GPUCycle  uint64          `json:"gpu_cycle"`
	DRAMCycle uint64          `json:"dram_cycle"`
	Channels  []ChannelSample `json:"channels"`
	Apps      []AppSample     `json:"apps"`
}

// Sampler accumulates snapshots in a bounded ring, keeping the most
// recent capacity epochs. Safe for concurrent use (the simulator records
// from one goroutine, but exporters may read from another).
type Sampler struct {
	mu       sync.Mutex
	interval uint64
	buf      []Snapshot
	start    int // index of the oldest snapshot
	n        int // live snapshots in buf
	dropped  uint64
}

// NewSampler builds a sampler recording every interval GPU cycles with a
// ring of ringCap snapshots. Zero values select the defaults.
func NewSampler(interval uint64, ringCap int) *Sampler {
	if interval == 0 {
		interval = DefaultInterval
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Sampler{interval: interval, buf: make([]Snapshot, 0, ringCap)}
}

// Interval returns the sampling epoch in GPU cycles.
func (s *Sampler) Interval() uint64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Record appends one snapshot, evicting the oldest when the ring is
// full.
func (s *Sampler) Record(snap Snapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < cap(s.buf) {
		s.buf = append(s.buf, snap)
		s.n++
		return
	}
	s.buf[s.start] = snap
	s.start = (s.start + 1) % s.n
	s.dropped++
}

// Last returns the most recent snapshot and whether one exists. Live
// consumers (the pimserve progress stream) poll it instead of copying
// the whole ring with Snapshots.
func (s *Sampler) Last() (Snapshot, bool) {
	if s == nil {
		return Snapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Snapshot{}, false
	}
	return s.buf[(s.start+s.n-1)%s.n], true
}

// Dropped returns how many snapshots were evicted by ring wraparound.
func (s *Sampler) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Snapshots returns the retained snapshots in chronological order.
func (s *Sampler) Snapshots() []Snapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Snapshot, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(s.start+i)%s.n])
	}
	return out
}

// Record is one line of a telemetry JSONL stream: exactly one of the
// payload fields is set, discriminated by Type.
type Record struct {
	Type     string       `json:"type"` // "manifest", "sample", "metric"
	Manifest *Manifest    `json:"manifest,omitempty"`
	Sample   *Snapshot    `json:"sample,omitempty"`
	Metric   *MetricPoint `json:"metric,omitempty"`
}

// WriteJSONL streams a full telemetry capture: the manifest first (when
// non-nil), then every metric point in the order given, then the time
// series in chronological order.
func WriteJSONL(w io.Writer, m *Manifest, metrics []MetricPoint, samples []Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if m != nil {
		if err := enc.Encode(Record{Type: "manifest", Manifest: m}); err != nil {
			return err
		}
	}
	for i := range metrics {
		if err := enc.Encode(Record{Type: "metric", Metric: &metrics[i]}); err != nil {
			return err
		}
	}
	for i := range samples {
		if err := enc.Encode(Record{Type: "sample", Sample: &samples[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream produced by WriteJSONL, returning the
// manifest (nil if absent), the exported metrics, and the time series.
func ReadJSONL(r io.Reader) (*Manifest, []MetricPoint, []Snapshot, error) {
	var (
		m       *Manifest
		metrics []MetricPoint
		samples []Snapshot
	)
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, nil, fmt.Errorf("telemetry: parse JSONL: %w", err)
		}
		switch rec.Type {
		case "manifest":
			m = rec.Manifest
		case "metric":
			if rec.Metric != nil {
				metrics = append(metrics, *rec.Metric)
			}
		case "sample":
			if rec.Sample != nil {
				samples = append(samples, *rec.Sample)
			}
		default:
			// Unknown record types are skipped so the format can grow.
		}
	}
	return m, metrics, samples, nil
}
