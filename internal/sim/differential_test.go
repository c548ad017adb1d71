package sim

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The differential harness is the event engine's equivalence proof: every
// workload class the paper's figures exercise is run under both the
// per-cycle reference loop (useTickLoop) and the skip-ahead loop every
// production run uses, and the full observable surface — stats, per-kernel
// outcomes, cycle counts, fault totals, and the telemetry registry and
// epoch series — must be bit-identical.

// diffCell is one workload in the differential matrix.
type diffCell struct {
	name   string
	policy string
	mode   config.VCMode
	gpu    string // GPU kernel ID, "" for PIM-only
	pim    string // PIM kernel ID, "" for MEM-only
	scale  float64
	faults faults.Schedule
}

// epoch is the cell's telemetry interval. The matrix alternates between a
// power of two (aligned with the progress-check cadence tryJump also lands
// on) and 500 (aligned with nothing), so jumps are cut short by both
// coinciding and off-grid epoch boundaries.
func (c diffCell) epoch() uint64 {
	if c.mode == config.VC2 {
		return 500
	}
	return 1024
}

// throttleOnly stresses the throttle-window gate without perturbing DRAM
// or NoC timing, so drained and frozen controller states get jumped over.
func throttleOnly() faults.Schedule {
	return faults.Schedule{ThrottlePeriod: 30_000, ThrottleWindow: 5_000}
}

// fullFaults matches the resilience suite's schedule: DRAM retries, NoC
// stalls, and throttle windows all active.
func fullFaults() faults.Schedule {
	return faults.Schedule{
		DRAMRetryProb:   0.002,
		DRAMRetryCycles: 12,
		NoCStallProb:    0.001,
		NoCStallCycles:  24,
		ThrottlePeriod:  40_000,
		ThrottleWindow:  2_000,
	}
}

func differentialMatrix() []diffCell {
	return []diffCell{
		{name: "mem-only/fr-fcfs/vc1", policy: "fr-fcfs", mode: config.VC1, gpu: "G8", scale: 0.2},
		{name: "pim-only/fr-fcfs/vc1", policy: "fr-fcfs", mode: config.VC1, pim: "P1", scale: 0.2},
		{name: "mixed/f3fs/vc1", policy: "f3fs", mode: config.VC1, gpu: "G8", pim: "P1", scale: 0.1},
		{name: "mixed/mem-first/vc2", policy: "mem-first", mode: config.VC2, gpu: "G4", pim: "P2", scale: 0.1},
		{name: "mixed/fcfs/vc2", policy: "fcfs", mode: config.VC2, gpu: "G17", pim: "P2", scale: 0.1},
		{name: "mem-only/fr-fcfs/vc1/faults", policy: "fr-fcfs", mode: config.VC1, gpu: "G8", scale: 0.2, faults: fullFaults()},
		{name: "mixed/f3fs/vc1/faults", policy: "f3fs", mode: config.VC1, gpu: "G8", pim: "P1", scale: 0.1, faults: fullFaults()},
		{name: "mixed/fr-rr-fcfs/vc2/throttle", policy: "fr-rr-fcfs", mode: config.VC2, gpu: "G8", pim: "P2", scale: 0.1, faults: throttleOnly()},
	}
}

func (c diffCell) descs(t *testing.T, cfg config.Config) []KernelDesc {
	t.Helper()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	if c.pim == "" {
		gpuSMs = SomeSMs(cfg, cfg.GPU.NumSMs)
	}
	var descs []KernelDesc
	if c.gpu != "" {
		descs = append(descs, gpuDesc(t, c.gpu, gpuSMs, c.scale))
	}
	if c.pim != "" {
		descs = append(descs, pimDesc(t, c.pim, pimSMs, c.scale))
	}
	return descs
}

// streamHash is a Sink folding every field of every event, in stream
// order, into an FNV-1a 64 hash and a count, without allocating.
type streamHash struct{ sum, n uint64 }

func newStreamHash() *streamHash { return &streamHash{sum: 14695981039346656037} }

func (h *streamHash) Record(e trace.Event) {
	h.n++
	for _, v := range [...]uint64{e.Cycle, e.Done, e.ReqID, uint64(e.Channel), uint64(e.Bank),
		uint64(e.Row), uint64(e.Kind), uint64(e.Req), uint64(e.Op), uint64(e.Mode)} {
		for i := 0; i < 8; i++ {
			h.sum ^= v & 0xff
			h.sum *= 1099511628211
			v >>= 8
		}
	}
}

// runUnderEngine builds a fresh System (Systems are single-use) with
// telemetry attached, and sink (when non-nil) on every channel's event
// stream, and runs it under the given schedule.
func runUnderEngine(t *testing.T, c diffCell, tick bool, sink trace.Sink) *Result {
	t.Helper()
	cfg := testCfg()
	cfg.NoC.Mode = c.mode
	cfg.Faults = c.faults
	sys, err := New(cfg, core.Factory(c.policy, cfg.Sched), c.descs(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if tick {
		sys.useTickLoop()
	}
	sys.EnableTelemetry(c.epoch(), 0)
	sys.SetSink(sink)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareEpochSeries asserts the two engines produced the same telemetry
// time series, snapshot by snapshot, and that the event engine emitted a
// sample at every epoch boundary it crossed: consecutive snapshots must
// be exactly one interval apart even when a multi-cycle jump crossed the
// boundary.
func compareEpochSeries(t *testing.T, tick, event *Result, interval uint64) {
	t.Helper()
	ts := tick.Telemetry.Sampler.Snapshots()
	es := event.Telemetry.Sampler.Snapshots()
	if len(ts) != len(es) {
		t.Fatalf("epoch series lengths differ: tick %d, event %d", len(ts), len(es))
	}
	for i := range es {
		if es[i].GPUCycle != ts[i].GPUCycle {
			t.Fatalf("epoch %d sampled at different cycles: tick %d, event %d",
				i, ts[i].GPUCycle, es[i].GPUCycle)
		}
		// All snapshots except the terminal one (taken at run end,
		// wherever that lands) sit on consecutive epoch boundaries: a
		// multi-cycle jump must not skip one.
		if i > 0 && i < len(es)-1 && es[i].GPUCycle != es[i-1].GPUCycle+interval {
			t.Fatalf("event engine skipped an epoch boundary: snapshot %d at cycle %d follows %d (interval %d)",
				i, es[i].GPUCycle, es[i-1].GPUCycle, interval)
		}
		if i == len(es)-1 && i > 0 && es[i].GPUCycle < es[i-1].GPUCycle {
			t.Fatalf("terminal snapshot at cycle %d precedes epoch snapshot at %d",
				es[i].GPUCycle, es[i-1].GPUCycle)
		}
		if !reflect.DeepEqual(es[i], ts[i]) {
			t.Fatalf("epoch %d (cycle %d) diverged:\n tick  %+v\n event %+v",
				i, es[i].GPUCycle, ts[i], es[i])
		}
	}
	if len(es) == 0 {
		t.Fatal("no telemetry snapshots recorded")
	}
}

// compareFinalCounters asserts every published telemetry metric agrees.
func compareFinalCounters(t *testing.T, tick, event *Result) {
	t.Helper()
	tm := tick.Telemetry.Metrics()
	em := event.Telemetry.Metrics()
	if len(tm) != len(em) {
		t.Fatalf("metric counts differ: tick %d, event %d", len(tm), len(em))
	}
	byName := make(map[string]telemetry.MetricPoint, len(tm))
	for _, p := range tm {
		byName[p.Name] = p
	}
	for _, p := range em {
		tp, ok := byName[p.Name]
		if !ok {
			t.Fatalf("event engine produced metric %q absent under tick", p.Name)
		}
		if !reflect.DeepEqual(p, tp) {
			t.Fatalf("metric %q diverged:\n tick  %+v\n event %+v", p.Name, tp, p)
		}
	}
}

// TestDifferentialTickVsEvent is the equivalence gate for the skip-ahead
// engine: for every cell of the workload matrix the two engines must
// produce bit-identical result digests, telemetry final counters, epoch
// series, and memory-side event streams (all channels, every field). On
// the first cell, the digest with the stream attached must equal the
// digest without it.
func TestDifferentialTickVsEvent(t *testing.T) {
	for i, c := range differentialMatrix() {
		t.Run(c.name, func(t *testing.T) {
			th, eh := newStreamHash(), newStreamHash()
			tick := runUnderEngine(t, c, true, th)
			event := runUnderEngine(t, c, false, eh)
			td := resultDigest(t, tick)
			ed := resultDigest(t, event)
			if td != ed {
				t.Errorf("result digests diverged:\n tick  %s\n event %s", td, ed)
			}
			if *th != *eh || th.n == 0 {
				t.Errorf("event streams diverged: tick %d events (hash %x), event %d (hash %x)", th.n, th.sum, eh.n, eh.sum)
			}
			if i == 0 {
				if bare := resultDigest(t, runUnderEngine(t, c, false, nil)); bare != ed {
					t.Errorf("attaching a sink moved the result digest:\n bare     %s\n attached %s", bare, ed)
				}
			}
			compareFinalCounters(t, tick, event)
			compareEpochSeries(t, tick, event, c.epoch())
			if tick.GPUCycles != event.GPUCycles {
				t.Errorf("GPU cycles diverged: tick %d, event %d", tick.GPUCycles, event.GPUCycles)
			}
			t.Logf("%s: %d GPU cycles, %d events, digest %s", c.name, event.GPUCycles, eh.n, ed[:12])
		})
	}
}
