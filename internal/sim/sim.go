// Package sim wires the full system of Fig. 1 and Fig. 7 together and
// runs it cycle by cycle: SMs (package gpu) inject kernel request streams
// into the crossbar (package noc), whose per-channel queues feed the L2
// slices (package cache) for MEM traffic and bypass straight to the
// L2->DRAM queues for PIM traffic; the per-channel memory controllers
// (package memctrl) arbitrate MEM/PIM modes under a scheduling policy and
// drive the DRAM timing model (package dram).
//
// Two clock domains are modeled: the SMs, crossbar and L2 run at the GPU
// core clock (1132 MHz in Table I) while the controllers and DRAM run at
// the DRAM clock (850 MHz); the L2->DRAM queues are the domain crossing.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/noc"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// KernelDesc describes one kernel to launch. Exactly one of GPU and PIM
// must be set.
type KernelDesc struct {
	// GPU selects a Rodinia-style MEM kernel profile.
	GPU *workload.GPUProfile
	// PIM selects a PIM kernel profile.
	PIM *workload.PIMProfile
	// SMs lists the streaming multiprocessors the kernel occupies.
	SMs []int
	// Base places the kernel's footprint in physical memory; co-running
	// kernels should use disjoint regions (MPS gives each process its
	// own address space).
	Base uint64
	// Scale multiplies the kernel's request/block count (1.0 = the
	// profile's default size).
	Scale float64
	// Seed perturbs the kernel's address randomness; 0 uses the system
	// seed.
	Seed int64
}

// KernelResult reports one kernel's outcome.
type KernelResult struct {
	// Label names the kernel ("G7/heartwall", "P1/stream-add").
	Label string
	// App is the kernel's application ID (its index in the descriptor
	// list).
	App int
	// Finished reports whether the first run completed.
	Finished bool
	// FirstFinish is the GPU cycle of first-run completion (valid when
	// Finished).
	FirstFinish uint64
	// EstFinish is FirstFinish when finished; otherwise a linear
	// extrapolation from partial progress (0 when no progress at all —
	// total starvation).
	EstFinish uint64
	// Runs, Issued and Completed describe progress.
	Runs, Issued, Completed int
	// Total is the per-run request count.
	Total int
	// StallCycles counts SM-cycles denied injection by backpressure.
	StallCycles uint64
}

// Result is the outcome of one simulation.
type Result struct {
	// Stats holds the full measurement record.
	Stats *stats.Sim
	// Kernels holds per-kernel outcomes, indexed by app ID.
	Kernels []KernelResult
	// GPUCycles and DRAMCycles are the run length.
	GPUCycles, DRAMCycles uint64
	// Aborted reports that the run hit MaxGPUCycles or made no progress
	// (starvation) before every kernel finished once.
	Aborted bool
	// Manifest identifies the run (config hash, seed, revision, wall
	// time). Always attached; the allocation counters inside are filled
	// only while telemetry is enabled.
	Manifest *telemetry.Manifest
	// Telemetry carries the run's sample ring and the metric points it
	// published when it ended, when telemetry was enabled (nil otherwise).
	Telemetry *telemetry.Collector
	// Starved details a starvation/deadlock abort (nil otherwise); when
	// set, Aborted is true. The run still returns a Result so fairness-0
	// data points stay analyzable.
	Starved *ErrStarved
	// Faults carries the injected-fault totals when the config had an
	// active fault schedule (nil otherwise).
	Faults *faults.Counts
}

// System is one configured simulation instance. Build with New, run with
// Run; a System is single-use.
type System struct {
	cfg    config.Config
	mapper addrmap.Mapper
	st     *stats.Sim

	network *noc.Network
	l1      []*cache.Slice // per SM (nil when L1Bytes == 0)
	l2      []*cache.Slice
	l2dram  []*noc.VCQueue
	mcs     []*memctrl.Controller
	kernels []*gpu.Kernel

	gpuCycle  uint64
	dramCycle uint64
	dramAccum int

	// Response calendar: slot respIdx+k (mod its length) of respRing holds
	// the responses due k GPU cycles from now, and bit i of respDue is set
	// iff slot i is non-empty, so tryJump finds the next due slot with
	// find-first-set instead of testing slot by slot.
	respRing [][]*request.Request
	respDue  []uint64
	respIdx  int

	idSeq uint64
	// pool is the run's request free list: generators and cache slices
	// draw from it, and the sim returns each request at its end of life
	// (see docs/PERFORMANCE.md, "Request ownership").
	pool  *request.Pool
	ran   bool
	isPIM []bool // per app: kernel submits PIM requests

	// noRestart disables the run-in-a-loop protocol: kernels run once
	// (the collaborative scenario, where total execution time is the
	// metric and both kernels belong to one application).
	noRestart bool

	tel      *telemetry.Collector
	telEvery uint64

	// flt is the fault injector; nil (no schedule) keeps the run
	// bit-identical to a fault-free build.
	flt *faults.Injector

	// injectFn is s.inject bound once at construction; taking the method
	// value inside advance would allocate a receiver-bound closure every
	// cycle (hotalloc).
	injectFn gpu.InjectFunc

	// Wake-up schedule of advance. kNext[i] is the next GPU cycle kernel i
	// must tick; mcNext[ch] the next DRAM cycle controller ch must tick;
	// intake[ch] parks channel ch's interconnect->L2 drain while its
	// verdict cannot change; respCount the responses scheduled but not yet
	// delivered. The crossbar has no wake-up cycle: it ticks on every live
	// cycle (a Tick with nothing to grant costs what asking would), and
	// tryJump asks Network.NextEvent whether it may be slept through.
	// tickEngine holds every gate open — the wake-up cycles never move,
	// nothing parks, tryJump is never consulted — so every component ticks
	// every cycle; only this package's tests set it (export_test.go), as
	// the oracle the skipping schedule is proven against.
	tickEngine bool
	kNext      []uint64
	mcNext     []uint64
	intake     []parkedIntake
	respCount  int
}

// parkedIntake is the gate on one channel's interconnect->L2 drain. A
// drainNoCOutputs visit that moves nothing has learned that every queue
// head is refused — a PIM op by a full L2->DRAM queue, a MEM request by the
// slice (MSHRs exhausted, its set fully pending, or no room downstream) —
// and asking again gets the same answer until one of three things happens:
// a head appears in a VC that had none (the crossbar granted into it; the
// heads themselves cannot change, only this drain pops them), drainToMCs
// pops the channel's L2->DRAM queue, or the slice takes a Fill. The visit
// therefore parks the channel with the heads it saw; later visits compare
// the two head pointers and move on, and the other two events unpark it.
type parkedIntake struct {
	parked bool
	heads  [2]*request.Request
	// retries is how many Blocked L2 accesses the parking visit made (0
	// when only a PIM op is stuck, else 1) — what every skipped visit
	// would have added to the slice's LRU clock — and since the GPU cycle
	// of the last visit whose accesses the clock has seen.
	retries uint64
	since   uint64
}

// EnableTelemetry attaches a telemetry collector to the system: an epoch
// sampler recording every interval GPU cycles into a ring of ringCap
// snapshots (zeros pick the package defaults), and the metric points the
// run publishes when it ends (publishMetrics). Call before Run; returns the
// collector (also attached to Result.Telemetry). New calls this
// automatically when the process-wide telemetry.Enable switch is on.
func (s *System) EnableTelemetry(interval uint64, ringCap int) *telemetry.Collector {
	s.tel = telemetry.NewCollector(interval, ringCap)
	s.telEvery = s.tel.Sampler.Interval()
	return s.tel
}

// takeTelemetrySample snapshots per-channel and per-app state into the
// collector's ring.
func (s *System) takeTelemetrySample() {
	s.tel.Sampler.Record(s.buildTelemetrySnapshot())
}

// endEpoch is the epilogue of every GPU cycle advance lands on, reached by a
// live cycle or by a jump: on a telemetry epoch boundary it records the
// time-series point.
func (s *System) endEpoch() {
	if s.telEvery > 0 && s.gpuCycle%s.telEvery == 0 {
		s.takeTelemetrySample() //pimlint:coldpath — epoch-gated sampling
	}
}

// buildTelemetrySnapshot assembles one time-series point. It reads only
// the layers' own counts, never the collector, so ErrStarved embeds a
// complete final snapshot from any run, telemetry on or off.
func (s *System) buildTelemetrySnapshot() telemetry.Snapshot {
	// Close every controller's deferred accounting through the current
	// DRAM cycle so occupancy sums, residency counters, SampledCycles and
	// the DRAM activity figures cover every cycle up to this instant.
	for _, mc := range s.mcs {
		mc.SyncStats(s.dramCycle)
	}
	snap := telemetry.Snapshot{
		GPUCycle:  s.gpuCycle,
		DRAMCycle: s.dramCycle,
		Channels:  make([]telemetry.ChannelSample, len(s.mcs)),
		Apps:      make([]telemetry.AppSample, len(s.kernels)),
	}
	for ch, mc := range s.mcs {
		st := &s.st.Channels[ch]
		m, p := mc.QueueLens()
		r := mc.Residency()
		snap.Channels[ch] = telemetry.ChannelSample{
			MemQ:             m,
			PIMQ:             p,
			Mode:             mc.Mode().String(),
			Switches:         st.Switches,
			MemModeCycles:    r.MemCycles,
			PIMModeCycles:    r.PIMCycles,
			DrainCycles:      r.DrainCycles,
			RBHR:             st.RBHR(),
			BLP:              st.BLP(),
			MemQOccupancySum: st.MemQOccupancySum,
			PIMQOccupancySum: st.PIMQOccupancySum,
			SampledCycles:    st.SampledCycles,
		}
	}
	for app, k := range s.kernels {
		// Completed comes from the stats counter, which is monotonic
		// across kernel restarts (Kernel.Completed resets per run).
		snap.Apps[app] = telemetry.AppSample{
			Injected:    s.st.Apps[app].NoCInjected,
			Arrived:     s.st.Apps[app].MCArrived,
			Completed:   s.st.Apps[app].Completed,
			StallCycles: k.StallCycles,
		}
	}
	return snap
}

// publishMetrics names every end-of-run metric, once, and hands the
// points to the collector: per channel the controller's mode residency and
// drain latency (a histogram-kind point: Count switches, Sum their drain
// cycles), the DRAM row commands and refreshes, and the channel's fault
// counts; for the interconnect its injections and link stalls. The
// accounting must be closed through the final cycle (RunContext's
// SyncStats).
func (s *System) publishMetrics() {
	points := make([]telemetry.MetricPoint, 0, 10*len(s.mcs)+4)
	counter := func(name string, v uint64) {
		points = append(points, telemetry.MetricPoint{Name: name, Kind: "counter", Value: float64(v)})
	}
	for ch, mc := range s.mcs {
		name := func(metric string) string { return telemetry.Name("mc", ch, metric) }
		st, r, f := &s.st.Channels[ch], mc.Residency(), s.flt.ChannelCounts(ch)
		acts, pres := mc.Channel().Commands()
		counter(name("mem_mode_cycles"), r.MemCycles)
		counter(name("pim_mode_cycles"), r.PIMCycles)
		counter(name("drain_cycles"), r.DrainCycles)
		counter(name("activates"), acts)
		counter(name("precharges"), pres)
		counter(name("refreshes"), st.Refreshes)
		counter(name("ecc_retries"), f.DRAMRetries)
		counter(name("ecc_retry_cycles"), f.DRAMRetryCycles)
		counter(name("throttled_cycles"), f.ThrottledCycles)
		drain := telemetry.MetricPoint{Name: name("drain_latency"), Kind: "histogram", Count: st.Switches, Sum: float64(r.DrainSum)}
		if drain.Count > 0 {
			drain.Value = drain.Sum / float64(drain.Count)
		}
		points = append(points, drain)
	}
	injected, rejected := s.network.Injections()
	f := s.flt.Counts()
	counter("noc/injected", injected)
	counter("noc/rejected", rejected)
	counter("noc/link_stalls", f.NoCLinkStalls)
	counter("noc/link_stall_cycles", f.NoCLinkStallCycles)
	s.tel.Publish(points)
}

// SetRunOnce disables kernel relaunching: each kernel runs exactly once
// and the simulation ends when all have finished. Competitive sweeps keep
// the default (Sec. III-B loops kernels until each completed once);
// collaborative runs measure a single overlapped execution.
func (s *System) SetRunOnce(once bool) { s.noRestart = once }

// New builds a system running the described kernels under the given
// scheduling policy factory (one policy instance per channel).
func New(cfg config.Config, policy sched.PolicyFactory, descs []KernelDesc) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(descs) == 0 {
		return nil, fmt.Errorf("sim: no kernels described")
	}
	geom, err := addrmap.NewGeometry(cfg.Memory.Channels, cfg.Memory.Banks, cfg.Memory.Rows, cfg.Memory.Columns, cfg.Memory.AccessBytes())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var mapper addrmap.Mapper = addrmap.NewInterleaved(geom)
	if cfg.Memory.Mapping == config.MapIPoly {
		mapper = addrmap.NewIPoly(geom)
	}
	s := &System{
		cfg:    cfg,
		mapper: mapper,
		st:     stats.New(len(descs), cfg.Memory.Channels),
		pool:   request.NewPool(),
	}
	s.network = noc.New(cfg)
	if cfg.Cache.L1Bytes > 0 {
		l1cfg := cfg.Cache
		l1cfg.Ways = cfg.Cache.L1Ways
		l1cfg.MSHRs = cfg.Cache.L1MSHRs
		s.l1 = make([]*cache.Slice, cfg.GPU.NumSMs)
		for sm := range s.l1 {
			s.l1[sm] = cache.NewSlice(l1cfg, cfg.Cache.L1Bytes)
			s.l1[sm].SetPool(s.pool)
		}
	}
	s.l2 = make([]*cache.Slice, cfg.Memory.Channels)
	s.l2dram = make([]*noc.VCQueue, cfg.Memory.Channels)
	s.mcs = make([]*memctrl.Controller, cfg.Memory.Channels)
	for ch := 0; ch < cfg.Memory.Channels; ch++ {
		ch := ch
		s.l2[ch] = cache.NewSlice(cfg.Cache, cfg.Cache.SliceBytes(cfg.Memory.Channels))
		s.l2[ch].SetPool(s.pool)
		s.l2dram[ch] = noc.NewVCQueue(cfg.NoC.Mode, cfg.NoC.BufferSize)
		s.mcs[ch] = memctrl.New(ch, cfg, policy(), &s.st.Channels[ch], func(r *request.Request, _ uint64) {
			s.onDRAMComplete(ch, r)
		})
	}
	// Response-path calendar: hit latency and response latency both
	// schedule into it.
	ringLen := cfg.GPU.ResponseLatency + cfg.Cache.HitLatency + 4
	s.respRing = make([][]*request.Request, ringLen)
	s.respDue = make([]uint64, (ringLen+63)/64)

	for app, d := range descs {
		k, err := s.buildKernel(app, d)
		if err != nil {
			return nil, err
		}
		s.kernels = append(s.kernels, k)
		s.isPIM = append(s.isPIM, d.PIM != nil)
	}
	if fs := cfg.Faults; fs.Active() {
		if fs.Seed == 0 {
			fs.Seed = cfg.Seed // faulty runs stay reproducible by default
		}
		s.flt = faults.NewInjector(fs, cfg.Memory.Channels, cfg.GPU.NumSMs)
		for _, mc := range s.mcs {
			mc.SetFaults(s.flt)
		}
		s.network.SetFaults(s.flt)
	}
	if telemetry.Enabled() {
		s.EnableTelemetry(0, 0)
	}
	s.injectFn = s.inject
	s.kNext = make([]uint64, len(s.kernels))
	s.mcNext = make([]uint64, len(s.mcs))
	s.intake = make([]parkedIntake, len(s.mcs))
	return s, nil
}

func (s *System) buildKernel(app int, d KernelDesc) (*gpu.Kernel, error) {
	scale := d.Scale
	if scale <= 0 {
		scale = 1
	}
	seed := d.Seed
	if seed == 0 {
		seed = s.cfg.Seed + int64(app)*31
	}
	if len(d.SMs) == 0 {
		return nil, fmt.Errorf("sim: kernel %d has no SMs", app)
	}
	switch {
	case d.GPU != nil && d.PIM == nil:
		if err := d.GPU.Validate(); err != nil {
			return nil, fmt.Errorf("sim: kernel %d: %w", app, err)
		}
		gen := workload.NewGPUGen(*d.GPU, s.mapper, d.SMs, app, d.Base, seed, scale, &s.idSeq)
		gen.SetPool(s.pool)
		maxOut := d.GPU.MaxOutstanding
		if maxOut <= 0 {
			maxOut = s.cfg.GPU.MaxOutstanding
		}
		params := gpu.IssueParams{Interval: d.GPU.Interval, PerSlot: 1, MaxOutstanding: maxOut}
		return gpu.NewKernel(app, d.GPU.ID+"/"+d.GPU.Name, gen, d.SMs, params, seed), nil
	case d.PIM != nil && d.GPU == nil:
		if err := d.PIM.Validate(s.cfg.PIM.RFPerBank()); err != nil {
			return nil, fmt.Errorf("sim: kernel %d: %w", app, err)
		}
		warpsPerSM := s.cfg.Memory.Channels / len(d.SMs)
		gen := workload.NewPIMGen(*d.PIM, s.mapper, d.SMs, warpsPerSM, s.cfg.PIM.RFPerBank(), app, scale, &s.idSeq)
		gen.SetPool(s.pool)
		// PIM kernels are optimized to saturate the memory interface:
		// one op per warp per cycle, throttled only by backpressure.
		params := gpu.IssueParams{Interval: 1, PerSlot: warpsPerSM, MaxOutstanding: 1 << 30}
		return gpu.NewKernel(app, d.PIM.ID+"/"+d.PIM.Name, gen, d.SMs, params, seed), nil
	default:
		return nil, fmt.Errorf("sim: kernel %d must set exactly one of GPU and PIM", app)
	}
}

// SetSink attaches sink to every channel's memory controller event
// stream (nil detaches it). Call before Run.
func (s *System) SetSink(sink trace.Sink) {
	for _, mc := range s.mcs {
		mc.SetSink(sink)
	}
}

// Controllers exposes the per-channel memory controllers (tests).
func (s *System) Controllers() []*memctrl.Controller { return s.mcs }

// inject is the InjectFunc given to kernels: PIM requests go straight to
// the interconnect (cache-streaming stores bypass the hierarchy); MEM
// requests are filtered by the issuing SM's L1D when one is configured.
func (s *System) inject(smID int, r *request.Request) bool {
	if r.Kind == request.PIMOp || s.l1 == nil {
		return s.injectNoC(smID, r)
	}
	l1 := s.l1[smID]
	res, forwards := l1.Access(r, s.network.InputSpace(smID, r.Kind))
	switch res {
	case cache.Hit:
		s.scheduleResponse(r, s.cfg.Cache.L1HitLatency)
		return true
	case cache.Merged:
		return true
	case cache.Miss:
		for _, f := range forwards {
			if f.Synthetic {
				s.decodeWriteback(f)
			} else {
				f.L1Fetch = true
				f.Kind = request.MemRead // write-allocate fetch
			}
			if !s.injectNoC(smID, f) {
				panic("sim: NoC inject failed after space check")
			}
		}
		return true
	default: // cache.Blocked
		return false
	}
}

func (s *System) injectNoC(smID int, r *request.Request) bool {
	if !s.network.Inject(smID, r) {
		return false
	}
	r.InjectGPUCycle = s.gpuCycle
	if !r.Synthetic {
		s.st.Apps[r.App].NoCInjected++
	}
	return true
}

// scheduleResponse delivers r to its kernel after delay GPU cycles.
func (s *System) scheduleResponse(r *request.Request, delay int) {
	r.AssertLive("sim: scheduleResponse")
	idx := (s.respIdx + delay) % len(s.respRing)
	s.respRing[idx] = append(s.respRing[idx], r)
	s.respDue[idx>>6] |= 1 << (idx & 63)
	s.respCount++
}

func (s *System) deliverResponses() {
	due := s.respRing[s.respIdx]
	// Park the emptied slice back in the slot so its backing array is
	// reused next lap. Safe against aliasing: every scheduleResponse
	// delay is >= 1 and < len(respRing), so nothing appends to this slot
	// while due is being walked.
	s.respRing[s.respIdx] = due[:0]
	s.respDue[s.respIdx>>6] &^= 1 << (s.respIdx & 63)
	s.respCount -= len(due)
	for _, r := range due {
		s.completeForKernel(r)
	}
}

// completeForKernel is the end of a delivered response's life: the
// request (and, for an L1 fetch, every request that merged into it) is
// retired to its kernel and returned to the pool.
func (s *System) completeForKernel(r *request.Request) {
	if r.Synthetic {
		s.pool.Put(r) // an L1 writeback that hit in the L2: no waiter
		return
	}
	if r.L1Fetch {
		// The response fills the issuing SM's L1 and releases every
		// request that merged into the fetch's MSHR (r itself included).
		r.L1Fetch = false
		for _, done := range s.l1[r.SM].Fill(r) {
			s.retire(done)
		}
		return
	}
	s.retire(r)
}

// retire credits one finished kernel request and recycles it.
func (s *System) retire(r *request.Request) {
	s.st.Apps[r.App].Completed++
	k := s.kernels[r.App]
	wake := k.CapParked(r.SM)
	k.OnComplete(r, s.gpuCycle)
	if wake {
		s.wakeKernel(r.App)
	}
	s.pool.Put(r)
}

// wakeKernel schedules an immediate tick for a kernel whose completion
// freed a slot parked at its outstanding cap, which the kernel's own
// NextEvent deliberately ignores; any other completion leaves NextEvent
// unchanged, so it wakes nothing. Responses are delivered before the
// kernel loop of the same cycle, so waking at the current cycle is exact.
func (s *System) wakeKernel(app int) {
	if s.kNext[app] > s.gpuCycle {
		s.kNext[app] = s.gpuCycle
	}
}

// onDRAMComplete routes memory-controller completions: PIM ops retire to
// their kernel, L2 fetch primaries fill the slice and release merged
// requests (a primary may itself be a synthetic L1 writeback — the fill
// must still happen or its MSHR leaks), and L2 victim writebacks vanish.
func (s *System) onDRAMComplete(ch int, r *request.Request) {
	switch {
	case r.Kind == request.PIMOp:
		s.scheduleResponse(r, 1)
	case r.L2Fetch:
		r.L2Fetch = false
		s.unpark(ch, s.gpuCycle) // the fill frees an MSHR and a way, and stamps the LRU clock
		for _, done := range s.l2[ch].Fill(r) {
			if done.Synthetic {
				s.pool.Put(done) // a writeback that allocated/merged: no waiter
				continue
			}
			s.scheduleResponse(done, s.cfg.GPU.ResponseLatency)
		}
	default:
		// L2 dirty-victim writeback: no one waits for it.
		s.pool.Put(r)
	}
}

// drainNoCOutputs moves requests from the interconnect->L2 queues into the
// L2 (MEM) or the L2->DRAM queue (PIM), one request per channel per GPU
// cycle, round-robin between virtual channels under VC2. A channel whose
// visit moved nothing is parked (see parkedIntake) and costs two pointer
// compares per cycle until it is woken.
func (s *System) drainNoCOutputs() {
	for ch := range s.l2 {
		q := s.network.Output(ch)
		if q.Len() == 0 {
			continue
		}
		if p := &s.intake[ch]; p.parked {
			if q.Peek(noc.VCMem) == p.heads[noc.VCMem] && q.Peek(noc.VCPim) == p.heads[noc.VCPim] {
				if invariant.Enabled {
					s.assertStillBlocked(ch) //pimlint:coldpath — simdebug builds only
				}
				continue
			}
			s.unpark(ch, s.gpuCycle-1) // this cycle's visit is made below
		}
		moved, retries := false, uint64(0)
		order := q.ServeOrder()
		for i, vc := range order {
			if i == 1 && vc == order[0] {
				break
			}
			head := q.Peek(vc)
			if head == nil {
				continue
			}
			if head.Kind == request.PIMOp {
				if s.l2dram[ch].CanPush(request.PIMOp) {
					s.l2dram[ch].Push(q.Pop(vc))
					q.Served(vc)
					moved = true
					break
				}
				continue
			}
			// MEM request: present to the L2 slice.
			res, forwards := s.l2[ch].Access(head, s.l2dram[ch].SpaceFor(request.MemRead))
			if res == cache.Blocked {
				// Leave in queue; backpressure builds upstream.
				retries++
				continue
			}
			q.Pop(vc)
			q.Served(vc)
			moved = true
			switch res {
			case cache.Hit:
				s.scheduleResponse(head, s.cfg.Cache.HitLatency)
			case cache.Miss:
				for i, f := range forwards {
					if i == 0 {
						// The fetch primary: a DRAM read that will
						// fill the slice, whatever kind the original
						// request was (write-allocate).
						f.L2Fetch = true
						f.Kind = request.MemRead
					} else {
						// The slice's dirty-victim writeback.
						s.decodeWriteback(f)
					}
					if !s.l2dram[ch].Push(f) {
						panic("sim: L2->DRAM push failed after space check")
					}
				}
			}
			break
		}
		if !moved && !s.tickEngine {
			s.intake[ch] = parkedIntake{
				parked:  true,
				heads:   [2]*request.Request{q.Peek(noc.VCMem), q.Peek(noc.VCPim)},
				retries: retries,
				since:   s.gpuCycle,
			}
		}
	}
}

// unpark ends channel ch's parked stretch, if it is in one. Every visit
// skipped since the parking one would have presented the same refused
// requests to the slice again, each attempt a tick of its LRU clock; they
// are credited here in closed form for the visits through GPU cycle
// through, so the clock reads what the every-cycle schedule's does whenever
// a Fill or an Access looks at it. The drain stage runs before the DRAM
// ticks of the same GPU cycle: a wake from those (a pop, a fill) counts the
// current cycle's visit as skipped, the drain's own wake does not.
func (s *System) unpark(ch int, through uint64) {
	p := &s.intake[ch]
	if !p.parked {
		return
	}
	p.parked = false
	s.l2[ch].CreditRetries(p.retries * (through - p.since))
}

// assertStillBlocked re-derives a parked channel's verdict from read-only
// probes of the state it depends on — free L2->DRAM space, and for a MEM
// head the slice's MSHRs and set — and requires it to be what the parking
// visit found: nothing can move. A wake that drainNoCOutputs, drainToMCs or
// onDRAMComplete failed to deliver shows up here at the cycle it was due.
func (s *System) assertStillBlocked(ch int) {
	q, down := s.network.Output(ch), s.l2dram[ch]
	for vc := noc.VCMem; vc <= noc.VCPim; vc++ {
		head := q.Peek(vc)
		if head == nil {
			continue
		}
		blocked := false
		if head.Kind == request.PIMOp {
			blocked = !down.CanPush(request.PIMOp)
		} else {
			blocked = s.l2[ch].WouldBlock(head, down.SpaceFor(request.MemRead))
		}
		invariant.Assert(blocked, "sim: channel %d is parked at GPU cycle %d, but the head of VC %d (%v) can move",
			ch, s.gpuCycle, vc, head)
	}
}

// decodeWriteback fills in the DRAM coordinates of a cache-generated
// writeback request.
func (s *System) decodeWriteback(r *request.Request) {
	c := s.mapper.Decode(r.Addr)
	r.Channel, r.Bank, r.Row, r.Col = c.Channel, c.Bank, c.Row, c.Col
	id := s.idSeq
	s.idSeq++
	r.ID = id
}

// drainToMCs moves requests from the L2->DRAM queues into the memory
// controller queues, one per channel per DRAM cycle, round-robin between
// VCs under VC2. Under VC1 a PIM request at the head of the shared queue
// whose controller PIM queue is full blocks the MEM requests behind it —
// the denial-of-service mechanism of Fig. 7a.
func (s *System) drainToMCs() {
	for ch, q := range s.l2dram {
		if q.Len() == 0 {
			continue
		}
		mc := s.mcs[ch]
		order := q.ServeOrder()
		for i, vc := range order {
			if i == 1 && vc == order[0] {
				break
			}
			head := q.Peek(vc)
			if head == nil {
				continue
			}
			if !mc.CanAccept(head.Kind) {
				if s.cfg.NoC.Mode == config.VC1 {
					break // head-of-line blocking in the shared queue
				}
				continue
			}
			// Close the controller's deferred accounting through the
			// previous cycle before it stamps the arrival: the drain
			// stage runs with the controller clock one behind the tick,
			// and a skipped controller's clock may be further behind
			// still. A no-op for a controller ticked last cycle.
			mc.SyncTo(s.dramCycle - 1)
			mc.Enqueue(q.Pop(vc))
			q.Served(vc)
			s.unpark(ch, s.gpuCycle) // the pop made room downstream of the L2
			if s.mcNext[ch] > s.dramCycle {
				s.mcNext[ch] = s.dramCycle // new work: tick this cycle
			}
			if !head.Synthetic {
				s.st.Apps[head.App].MCArrived++
			}
			break
		}
	}
}

// Starvation detection and cancellation cadence of RunContext: if no
// kernel still on its first run makes progress for progressWindow GPU
// cycles the run aborts as starved; both are evaluated every checkEvery
// cycles. Package-scoped because tryJump must land on every checkEvery
// boundary so aborts happen at bit-identical cycles.
const (
	progressWindow = 400_000 // GPU cycles
	checkEvery     = 4096
)

// advance moves the system forward by one GPU cycle — or, when tryJump
// proves that nothing can change for a while, by several at once. It is
// the one cycle skeleton: each component is ticked only at cycles its
// NextEvent method (or an explicit wake on new work) says it could change
// state, and a controller closes the accounting of the cycles it skipped
// in closed form when it is next ticked or read. Under the test oracle
// (tickEngine) the wake-up cycles never move and no gate is consulted, so
// the same skeleton ticks every component every cycle; every run
// observable — stats, telemetry, digests — is bit-identical between the
// two schedules, the contract the differential harness pins.
func (s *System) advance() {
	skip := !s.tickEngine
	if skip && s.tryJump() {
		return
	}
	if s.respCount > 0 {
		s.deliverResponses()
	}
	for i, k := range s.kernels {
		if s.kNext[i] <= s.gpuCycle {
			k.Tick(s.gpuCycle, s.injectFn)
			if skip {
				s.kNext[i] = k.NextEvent(s.gpuCycle)
			}
		}
	}
	s.network.Tick()
	s.drainNoCOutputs()

	// DRAM clock domain: ClockMHz DRAM cycles per CoreClockMHz GPU
	// cycles, via an integer accumulator.
	s.dramAccum += s.cfg.Memory.ClockMHz
	for s.dramAccum >= s.cfg.GPU.CoreClockMHz {
		s.dramAccum -= s.cfg.GPU.CoreClockMHz
		s.dramCycle++
		s.drainToMCs()
		for i, mc := range s.mcs {
			if s.mcNext[i] <= s.dramCycle {
				mc.Tick(s.dramCycle)
				if skip {
					s.mcNext[i] = mc.NextEvent(s.dramCycle)
				}
			}
		}
	}

	s.gpuCycle++
	s.respIdx = (s.respIdx + 1) % len(s.respRing)
	s.endEpoch()
}

// nextBoundary returns the smallest multiple of n strictly above g
// (never for n == 0). tryJump may not jump across telemetry or
// progress-check boundaries — it lands on each and runs the epilogue a
// live cycle runs there, so epoch series and starvation aborts stay
// bit-identical.
func nextBoundary(g, n uint64) uint64 {
	if n == 0 {
		return ^uint64(0)
	}
	return (g/n + 1) * n
}

// nextResponseIn returns in how many GPU cycles the earliest scheduled
// response is due: the distance from respIdx to the next occupied calendar
// slot, wrapping at the ring's end. It requires a scheduled response and
// the current slot empty (tryJump has just ruled a due response out).
func (s *System) nextResponseIn() int {
	i := firstSet(s.respDue, s.respIdx+1)
	if i < 0 {
		i = firstSet(s.respDue, 0) + len(s.respRing)
	}
	return i - s.respIdx
}

// firstSet returns the index of the first set bit of set at or after bit
// from, or -1 when there is none.
func firstSet(set []uint64, from int) int {
	for w := from >> 6; w < len(set); w++ {
		word := set[w]
		if w == from>>6 {
			word &^= 1<<(from&63) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// tryJump skips ahead over GPU cycles in which nothing in the system can
// change: no response in flight, a crossbar with nothing to grant (its
// NextEvent) and nothing in its output queues, empty L2->DRAM queues,
// every kernel's next issue in the future, and every controller's next
// event beyond the DRAM cycles the jump would produce. It advances
// gpuCycle/dramCycle/the clock-domain accumulator exactly as that many
// live cycles would, then runs the epoch epilogue at the landing cycle.
// Returns false (having advanced nothing) when the system is busy or the
// first actionable cycle is the current one.
func (s *System) tryJump() bool {
	// A response due this very cycle must be delivered by a live cycle.
	if s.respDue[s.respIdx>>6]&(1<<(s.respIdx&63)) != 0 {
		return false
	}
	// Earliest GPU cycle any kernel acts, capped so the jump lands on
	// (never crosses) every epilogue boundary.
	target := ^uint64(0)
	for _, at := range s.kNext {
		if at < target {
			target = at
		}
	}
	if b := nextBoundary(s.gpuCycle, s.telEvery); b < target {
		target = b
	}
	if b := nextBoundary(s.gpuCycle, checkEvery); b < target {
		target = b
	}
	if s.respCount > 0 {
		// Land on the cycle the earliest scheduled response is due, so
		// the live cycle there delivers it.
		if c := s.gpuCycle + uint64(s.nextResponseIn()); c < target {
			target = c
		}
	}
	if s.cfg.MaxGPUCycles < target {
		target = s.cfg.MaxGPUCycles
	}
	if target <= s.gpuCycle || s.network.NextEvent(s.gpuCycle) != ^uint64(0) {
		return false
	}
	for ch := range s.l2 {
		if s.network.Output(ch).Len() > 0 {
			return false
		}
	}
	for _, q := range s.l2dram {
		if q.Len() > 0 {
			return false
		}
	}
	mcMin := ^uint64(0)
	for _, at := range s.mcNext {
		if at < mcMin {
			mcMin = at
		}
	}
	// Advance the clock-domain accumulator cycle by cycle (two integer
	// ops per skipped cycle), stopping before any GPU cycle whose DRAM
	// cycle reaches a controller's next event — that cycle runs live.
	var jumped uint64
	for jumped < target-s.gpuCycle {
		acc := s.dramAccum + s.cfg.Memory.ClockMHz
		d := s.dramCycle
		ok := true
		for acc >= s.cfg.GPU.CoreClockMHz {
			if d+1 >= mcMin {
				ok = false // this GPU cycle's DRAM cycle runs live
				break
			}
			acc -= s.cfg.GPU.CoreClockMHz
			d++
		}
		if !ok {
			break
		}
		s.dramAccum, s.dramCycle = acc, d
		jumped++
	}
	if jumped == 0 {
		return false
	}
	s.gpuCycle += jumped
	s.respIdx = (s.respIdx + int(jumped%uint64(len(s.respRing)))) % len(s.respRing)
	s.endEpoch()
	return true
}

// Run executes the co-execution protocol with no cancellation; see
// RunContext.
func (s *System) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the co-execution protocol of Sec. III-B: every
// kernel is launched at cycle 0 and re-launched whenever it finishes
// while any other kernel is still on its first run; the simulation ends
// when every kernel has completed at least one run (or aborts on the
// cycle limit / total lack of progress). The context is polled every few
// thousand cycles; on cancellation or deadline expiry the run stops with
// an *ErrInterrupted carrying the position and queue state (Unwrap
// yields the context's error).
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: System is single-use; build a new one")
	}
	s.ran = true
	manifest := telemetry.NewManifest(s.cfg, s.cfg.Seed, s.cfg.Memory.Channels, s.cfg.GPU.NumSMs)
	for _, k := range s.kernels {
		manifest.Kernels = append(manifest.Kernels, k.Label())
	}
	for _, k := range s.kernels {
		k.Start(0)
	}
	// Starvation detection: if no kernel still on its *first* run makes
	// progress for a whole window, the run is starved or deadlocked and
	// aborts (its fairness is 0, matching the paper's starvation
	// cases). Kernels relaunched for contention don't count as
	// progress, or a starved PIM kernel beside a looping GPU kernel
	// would spin until the cycle limit.
	lastProgress := uint64(0)
	firstRunCompleted := make([]int, len(s.kernels))
	aborted := false
	var starved *ErrStarved

	for {
		if s.allFinished() {
			break
		}
		if s.gpuCycle >= s.cfg.MaxGPUCycles {
			aborted = true
			break
		}
		s.advance()
		if s.gpuCycle%checkEvery == 0 {
			// Cancellation piggybacks on the progress-check cadence, so
			// the hot loop pays one modulo it already paid.
			if err := ctx.Err(); err != nil {
				return nil, &ErrInterrupted{
					GPUCycle:  s.gpuCycle,
					DRAMCycle: s.dramCycle,
					Queues:    s.queueSnapshots(),
					Err:       err,
				}
			}
			progressed := false
			for i, k := range s.kernels {
				if k.Finished() {
					continue
				}
				if c := k.Completed(); c != firstRunCompleted[i] {
					firstRunCompleted[i] = c
					progressed = true
				}
			}
			if progressed {
				lastProgress = s.gpuCycle
			} else if s.gpuCycle-lastProgress > progressWindow {
				aborted = true
				starved = &ErrStarved{
					GPUCycle:     s.gpuCycle,
					LastProgress: lastProgress,
					Window:       progressWindow,
					Queues:       s.queueSnapshots(),
					Snapshot:     s.buildTelemetrySnapshot(),
				}
				break
			}
		}
		// Restart kernels that finished while others still run, to
		// keep generating contention.
		if s.noRestart {
			continue
		}
		for app, k := range s.kernels {
			if k.RunDone() && !s.allFinished() {
				k.Restart(s.gpuCycle)
				s.kNext[app] = 0 // fresh slots: tick immediately
				if s.isPIM[app] {
					// A fresh PIM kernel launch resets the
					// register files and the block cursor; all
					// ops of the previous run have completed
					// (RunDone), so no in-flight state is lost.
					for _, mc := range s.mcs {
						mc.Units().Reset()
					}
				}
			}
		}
	}

	if invariant.Enabled {
		// Every request out of the pool sits in exactly one place.
		held := s.requestsHeld()
		invariant.Assert(s.pool.Live() == held,
			"sim: %d requests out of the pool but %d held in queues, MSHRs, DRAM and the response ring", s.pool.Live(), held)
	}
	// Close deferred controller accounting through the final DRAM cycle
	// before the stats are read.
	for _, mc := range s.mcs {
		mc.SyncStats(s.dramCycle)
	}
	s.st.GPUCycles = s.gpuCycle
	s.st.DRAMCycles = s.dramCycle
	if s.tel != nil {
		// Close the time series with the end-of-run state, so even runs
		// shorter than one epoch produce a timeline point.
		s.takeTelemetrySample()
		s.publishMetrics()
	}
	manifest.Finish(s.gpuCycle, s.dramCycle, aborted, runtime.NumGoroutine())
	if s.tel != nil {
		manifest.SampleInterval = s.telEvery
		manifest.Samples = len(s.tel.Sampler.Snapshots())
		manifest.SamplesDropped = s.tel.Sampler.Dropped()
	}
	res := &Result{
		Stats:      s.st,
		GPUCycles:  s.gpuCycle,
		DRAMCycles: s.dramCycle,
		Aborted:    aborted,
		Manifest:   manifest,
		Telemetry:  s.tel,
		Starved:    starved,
	}
	if s.flt != nil {
		c := s.flt.Counts()
		res.Faults = &c
	}
	for app, k := range s.kernels {
		kr := KernelResult{
			Label:       k.Label(),
			App:         app,
			Finished:    k.Finished(),
			Runs:        k.Runs(),
			Issued:      k.Issued(),
			Completed:   k.Completed(),
			Total:       k.Total(),
			StallCycles: k.StallCycles,
		}
		if k.Finished() {
			kr.FirstFinish = k.FirstFinish()
			kr.EstFinish = k.FirstFinish()
			s.st.KernelFinishGPU[app] = k.FirstFinish()
		} else if k.Completed() > 0 {
			kr.EstFinish = s.gpuCycle * uint64(k.Total()) / uint64(k.Completed())
		}
		res.Kernels = append(res.Kernels, kr)
	}
	return res, nil
}

// requestsHeld counts the requests resident anywhere in the system, each
// where it physically sits: an MSHR's primary travels on towards DRAM and
// is counted in the queue that holds it, so only merged waiters count for
// the caches.
func (s *System) requestsHeld() int {
	n := s.network.InFlits() + s.respCount
	for _, k := range s.kernels {
		n += k.Held()
	}
	for _, c := range s.l1 {
		n += c.Waiters()
	}
	for ch := range s.l2 {
		n += s.network.Output(ch).Len() + s.l2[ch].Waiters() + s.l2dram[ch].Len() + s.mcs[ch].Held()
	}
	return n
}

func (s *System) allFinished() bool {
	for _, k := range s.kernels {
		if !k.Finished() {
			return false
		}
	}
	return true
}

// GPUAndPIMSMs partitions the configured SMs for co-execution: the PIM
// kernel gets the last PIMSMs SMs, the GPU kernel the rest (72 of 80 in
// the paper).
func GPUAndPIMSMs(cfg config.Config) (gpuSMs, pimSMs []int) {
	split := cfg.GPU.NumSMs - cfg.GPU.PIMSMs
	for i := 0; i < split; i++ {
		gpuSMs = append(gpuSMs, i)
	}
	for i := split; i < cfg.GPU.NumSMs; i++ {
		pimSMs = append(pimSMs, i)
	}
	return gpuSMs, pimSMs
}

// SomeSMs returns the first n SM indexes (e.g. the GPU-8 configuration of
// Fig. 4).
func SomeSMs(cfg config.Config, n int) []int {
	sms := make([]int, n)
	for i := range sms {
		sms[i] = i
	}
	return sms
}
