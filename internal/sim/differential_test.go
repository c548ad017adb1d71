package sim

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/request"
	"repro/internal/sched"
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

// residence is a Sink that recounts queue occupancy by Little's law: it
// keeps each request's enqueue event until the command that takes the
// request off its queue (EvColumn for MEM, EvPIMOp for PIM) and adds the
// cycles between the two to that channel's MEM or PIM sum.
type residence struct {
	queued  map[uint64]trace.Event // request ID -> its EvEnqueue, while queued
	sum     [2][]uint64            // [queueOf][channel]: Σ(leave − enqueue)
	orphans int                    // leaves whose enqueue was not seen on that channel and queue
}

// queueOf indexes residence.sum: 0 for the MEM queue, 1 for the PIM queue.
func queueOf(enq trace.Event) int {
	if enq.Req == request.PIMOp {
		return 1
	}
	return 0
}

func newResidence(channels int) *residence {
	return &residence{
		queued: make(map[uint64]trace.Event),
		sum:    [2][]uint64{make([]uint64, channels), make([]uint64, channels)},
	}
}

func (r *residence) Record(e trace.Event) {
	switch e.Kind {
	case trace.EvEnqueue:
		r.queued[e.ReqID] = e
	case trace.EvColumn, trace.EvPIMOp:
		enq, ok := r.queued[e.ReqID]
		if !ok || enq.Channel != e.Channel || (queueOf(enq) == 1) != (e.Kind == trace.EvPIMOp) {
			r.orphans++
			return
		}
		delete(r.queued, e.ReqID)
		r.sum[queueOf(enq)][enq.Channel] += e.Cycle - enq.Cycle
	}
}

// TestQueueOccupancyIsResidence checks the queue-occupancy sums against
// Little's law: on every channel, MemQOccupancySum and PIMQOccupancySum
// must equal the cycles that channel's requests spent in the queue, counted
// from the event stream (a request still queued when the run ends leaves at
// DRAMCycles), and SampledCycles must equal DRAMCycles. Every cell of the
// differential matrix runs under both engines.
func TestQueueOccupancyIsResidence(t *testing.T) {
	for _, c := range differentialMatrix() {
		for _, tick := range []bool{true, false} {
			name := c.name + "/event"
			if tick {
				name = c.name + "/tick"
			}
			t.Run(name, func(t *testing.T) {
				r := newResidence(testCfg().Memory.Channels)
				res := runUnderEngine(t, c, tick, r)
				if r.orphans != 0 {
					t.Fatalf("%d requests left a queue they were not enqueued in", r.orphans)
				}
				stillQueued := len(r.queued)
				for _, enq := range r.queued {
					r.sum[queueOf(enq)][enq.Channel] += res.DRAMCycles - enq.Cycle
				}
				mem, pim := r.sum[0], r.sum[1]
				if len(res.Stats.Channels) != len(mem) {
					t.Fatalf("%d channels in the stats, %d configured", len(res.Stats.Channels), len(mem))
				}
				for ch, st := range res.Stats.Channels {
					if st.MemQOccupancySum != mem[ch] || st.PIMQOccupancySum != pim[ch] {
						t.Errorf("channel %d: occupancy sums MEM %d PIM %d, residence MEM %d PIM %d",
							ch, st.MemQOccupancySum, st.PIMQOccupancySum, mem[ch], pim[ch])
					}
					if st.SampledCycles != res.DRAMCycles {
						t.Errorf("channel %d: SampledCycles %d, DRAMCycles %d", ch, st.SampledCycles, res.DRAMCycles)
					}
				}
				t.Logf("%d DRAM cycles, %d requests still queued at the end", res.DRAMCycles, stillQueued)
			})
		}
	}
}

// switchCount is a Sink that recounts mode switches from their
// boundaries alone: an EvSwitchStart opens a drain on its channel and the
// next EvSwitchDone there closes it. Each closed drain is a switch; one
// whose target is PIM (the source is the other mode) is a MEM->PIM switch
// and adds its start-to-done cycles to the drain sum.
type switchCount struct {
	open      []bool   // per channel: a drain is open
	start     []uint64 // per channel: the open drain's EvSwitchStart cycle
	target    []sched.Mode
	switches  []uint64
	memToPIM  []uint64
	drainSum  []uint64
	anomalies int // a start over an open drain, a done with none, or a done whose target moved
}

func newSwitchCount(channels int) *switchCount {
	return &switchCount{
		open:     make([]bool, channels),
		start:    make([]uint64, channels),
		target:   make([]sched.Mode, channels),
		switches: make([]uint64, channels),
		memToPIM: make([]uint64, channels),
		drainSum: make([]uint64, channels),
	}
}

func (s *switchCount) Record(e trace.Event) {
	ch := e.Channel
	switch e.Kind {
	case trace.EvSwitchStart:
		if s.open[ch] {
			s.anomalies++
		}
		s.open[ch], s.start[ch], s.target[ch] = true, e.Cycle, e.Mode
	case trace.EvSwitchDone:
		if !s.open[ch] || s.target[ch] != e.Mode {
			s.anomalies++
			return
		}
		s.open[ch] = false
		s.switches[ch]++
		if e.Mode == sched.ModePIM {
			s.memToPIM[ch]++
			s.drainSum[ch] += e.Cycle - s.start[ch]
		}
	}
}

// TestSwitchCountsFromBoundaries checks Switches, MemToPIMSwitches and
// DrainLatencySum against a recount from the switch boundaries of the
// event stream, exactly, on every channel of every cell of the
// differential matrix under both engines. A drain still open when the run
// ends counts nowhere, in the stream or in the stats.
func TestSwitchCountsFromBoundaries(t *testing.T) {
	for _, c := range differentialMatrix() {
		for _, tick := range []bool{true, false} {
			name := c.name + "/event"
			if tick {
				name = c.name + "/tick"
			}
			t.Run(name, func(t *testing.T) {
				s := newSwitchCount(testCfg().Memory.Channels)
				res := runUnderEngine(t, c, tick, s)
				if s.anomalies != 0 {
					t.Fatalf("%d switch boundaries out of order", s.anomalies)
				}
				var total, memToPIM, drain uint64
				for ch, st := range res.Stats.Channels {
					if st.Switches != s.switches[ch] || st.MemToPIMSwitches != s.memToPIM[ch] || st.DrainLatencySum != s.drainSum[ch] {
						t.Errorf("channel %d: stats %d switches, %d MEM->PIM, drain %d; stream %d, %d, %d",
							ch, st.Switches, st.MemToPIMSwitches, st.DrainLatencySum, s.switches[ch], s.memToPIM[ch], s.drainSum[ch])
					}
					total, memToPIM, drain = total+s.switches[ch], memToPIM+s.memToPIM[ch], drain+s.drainSum[ch]
				}
				t.Logf("%d switches (%d MEM->PIM, %d drain cycles) over %d channels", total, memToPIM, drain, len(res.Stats.Channels))
			})
		}
	}
}

// rowCount is a Sink that recounts row-buffer hits and misses from the
// command stream alone. The controller classifies a MEM request as a
// miss right before it issues the precharge or activate that prepares
// the request's bank, and that command carries the request; so a MEM
// miss is a request some EvPrecharge/EvActivate carried, and a MEM hit
// a column whose request none carried. A lockstep PIM op is a miss when
// an EvPIMPrechargeAll/EvPIMActivateAll carried it before its EvPIMOp,
// a hit otherwise.
type rowCount struct {
	prepared                               map[uint64]bool // request IDs a row command carried, until their column or op
	memHits, memMisses, pimHits, pimMisses []uint64
}

func newRowCount(channels int) *rowCount {
	return &rowCount{
		prepared:  make(map[uint64]bool),
		memHits:   make([]uint64, channels),
		memMisses: make([]uint64, channels),
		pimHits:   make([]uint64, channels),
		pimMisses: make([]uint64, channels),
	}
}

func (r *rowCount) Record(e trace.Event) {
	ch := e.Channel
	switch e.Kind {
	case trace.EvPrecharge, trace.EvActivate:
		if !r.prepared[e.ReqID] {
			r.prepared[e.ReqID] = true
			r.memMisses[ch]++
		}
	case trace.EvPIMPrechargeAll, trace.EvPIMActivateAll:
		r.prepared[e.ReqID] = true
	case trace.EvColumn:
		if !r.prepared[e.ReqID] {
			r.memHits[ch]++
		}
		delete(r.prepared, e.ReqID)
	case trace.EvPIMOp:
		if r.prepared[e.ReqID] {
			r.pimMisses[ch]++
		} else {
			r.pimHits[ch]++
		}
		delete(r.prepared, e.ReqID)
	}
}

// TestRowHitsFromCommands checks RowHits, RowMisses, PIMRowHits and
// PIMRowMisses against a recount from the row commands of the event
// stream, exactly, on every channel of every cell of the differential
// matrix under both engines. A MEM request prepared but not yet issued
// when the run ends is a miss in both counts: the classification
// happens at the preparing command, not at the column.
func TestRowHitsFromCommands(t *testing.T) {
	for _, c := range differentialMatrix() {
		for _, tick := range []bool{true, false} {
			name := c.name + "/event"
			if tick {
				name = c.name + "/tick"
			}
			t.Run(name, func(t *testing.T) {
				r := newRowCount(testCfg().Memory.Channels)
				res := runUnderEngine(t, c, tick, r)
				var hits, misses, pimHits, pimMisses uint64
				for ch, st := range res.Stats.Channels {
					if st.RowHits != r.memHits[ch] || st.RowMisses != r.memMisses[ch] ||
						st.PIMRowHits != r.pimHits[ch] || st.PIMRowMisses != r.pimMisses[ch] {
						t.Errorf("channel %d: stats %d/%d MEM hits/misses, %d/%d PIM; stream %d/%d, %d/%d", ch,
							st.RowHits, st.RowMisses, st.PIMRowHits, st.PIMRowMisses,
							r.memHits[ch], r.memMisses[ch], r.pimHits[ch], r.pimMisses[ch])
					}
					hits, misses = hits+r.memHits[ch], misses+r.memMisses[ch]
					pimHits, pimMisses = pimHits+r.pimHits[ch], pimMisses+r.pimMisses[ch]
				}
				t.Logf("MEM %d hits %d misses, PIM %d hits %d misses over %d channels", hits, misses, pimHits, pimMisses, len(res.Stats.Channels))
			})
		}
	}
}

// conflictCount is a Sink that recounts PostSwitchConflicts, Fig. 10b's
// numerator, from the command stream alone: a MEM miss (the first
// EvPrecharge/EvActivate that carries its request, as rowCount counts
// it) is a post-switch conflict when the last command on its bank was a
// PIM all-bank one (EvPIMPrechargeAll/EvPIMActivateAll) rather than a MEM
// one. A MEM column on a row a PIM activate opened takes the bank over
// too, so the next miss there is an ordinary one. The matrix runs the
// shared row buffer without refresh, so every PIM all-bank command acts
// on every bank and no refresh precharge (EvPrechargeAll) occurs.
type conflictCount struct {
	prepared  map[uint64]bool
	byPIM     [][]bool // per channel, per bank: the last command was a PIM all-bank one
	conflicts []uint64
}

func newConflictCount(channels, banks int) *conflictCount {
	c := &conflictCount{prepared: make(map[uint64]bool), conflicts: make([]uint64, channels)}
	for ch := 0; ch < channels; ch++ {
		c.byPIM = append(c.byPIM, make([]bool, banks))
	}
	return c
}

func (c *conflictCount) Record(e trace.Event) {
	ch := e.Channel
	switch e.Kind {
	case trace.EvPrecharge, trace.EvActivate:
		if !c.prepared[e.ReqID] {
			c.prepared[e.ReqID] = true
			if c.byPIM[ch][e.Bank] {
				c.conflicts[ch]++
			}
		}
		c.byPIM[ch][e.Bank] = false
	case trace.EvColumn:
		delete(c.prepared, e.ReqID)
		c.byPIM[ch][e.Bank] = false
	case trace.EvPIMPrechargeAll, trace.EvPIMActivateAll:
		for b := range c.byPIM[ch] {
			c.byPIM[ch][b] = true
		}
	}
}

// TestPostSwitchConflictsFromCommands checks PostSwitchConflicts against
// a recount from the row commands of the event stream, exactly, on every
// channel of every cell of the differential matrix under both engines.
func TestPostSwitchConflictsFromCommands(t *testing.T) {
	for _, c := range differentialMatrix() {
		for _, tick := range []bool{true, false} {
			name := c.name + "/event"
			if tick {
				name = c.name + "/tick"
			}
			t.Run(name, func(t *testing.T) {
				cfg := testCfg()
				r := newConflictCount(cfg.Memory.Channels, cfg.Memory.Banks)
				res := runUnderEngine(t, c, tick, r)
				var total uint64
				for ch, st := range res.Stats.Channels {
					if st.PostSwitchConflicts != r.conflicts[ch] {
						t.Errorf("channel %d: stats %d post-switch conflicts, stream %d", ch, st.PostSwitchConflicts, r.conflicts[ch])
					}
					total += r.conflicts[ch]
				}
				t.Logf("%d post-switch conflicts over %d channels", total, len(res.Stats.Channels))
			})
		}
	}
}
