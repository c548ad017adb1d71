package bench

import (
	"fmt"
	"time"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/gpu"
	"repro/internal/memctrl"
	"repro/internal/noc"
	"repro/internal/request"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Layer drivers: each builds one instance of a layer through its exported
// constructor, feeds it the request stream of the workload's own kernels,
// and reports the host nanoseconds per exported call. The cycle loop lives
// inside System.Run, so this is what "per layer" can mean from outside.

// streamLimit bounds the requests kept per kernel.
const streamLimit = 60_000

// driverBudget bounds one driver: it stops after Ops operations or after
// Time, whichever comes first.
type driverBudget struct {
	Ops  int
	Time time.Duration
}

// fullBudget is a benchmark run's; tests pass a far smaller one.
var fullBudget = driverBudget{Ops: 1_000_000, Time: 300 * time.Millisecond}

// nsPerOp calls batch, which reports how many operations it performed,
// until the budget is spent, and returns the mean cost of one.
func (b driverBudget) nsPerOp(batch func() int) float64 {
	ops, start := 0, time.Now()
	for ops == 0 || (ops < b.Ops && time.Since(start) < b.Time) {
		n := batch()
		if n == 0 {
			break
		}
		ops += n
	}
	if ops == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// kernelStream is one kernel of the workload as the simulator would launch
// it: its generator, issue timing and the requests it produces, by slot.
type kernelStream struct {
	label  string
	gen    workload.Generator
	seed   int64
	sms    []int
	params gpu.IssueParams
	slots  [][]*request.Request
	pim    bool
}

// streams holds the request streams of a workload's distinct kernels.
type streams struct {
	driverBudget
	cfg     config.Config
	mapper  addrmap.Mapper
	kernels []kernelStream
	// policies are the distinct scheduling policies the workload uses.
	policies []string
}

// drain pulls up to limit requests from a freshly reset generator, round
// robin over its slots, and returns how many it got.
func drain(ks *kernelStream, limit int, keep bool) int {
	ks.gen.Reset(ks.seed)
	if keep {
		ks.slots = make([][]*request.Request, ks.gen.Slots())
	}
	n := 0
	for live := true; live && n < limit; {
		live = false
		for s := 0; s < ks.gen.Slots() && n < limit; s++ {
			if r := ks.gen.Next(s); r != nil {
				live = true
				n++
				if keep {
					ks.slots[s] = append(ks.slots[s], r)
				}
			}
		}
	}
	return n
}

// newStreams generates the streams of every distinct kernel in cells,
// mirroring sim.New's kernel construction.
func newStreams(cells []simCell, budget driverBudget) (*streams, error) {
	cfg := cells[0].Cfg
	geom, err := addrmap.NewGeometry(cfg.Memory.Channels, cfg.Memory.Banks, cfg.Memory.Rows, cfg.Memory.Columns, cfg.Memory.AccessBytes())
	if err != nil {
		return nil, err
	}
	st := &streams{driverBudget: budget, cfg: cfg}
	st.mapper = addrmap.NewInterleaved(geom)
	if cfg.Memory.Mapping == config.MapIPoly {
		st.mapper = addrmap.NewIPoly(geom)
	}
	var ids uint64
	seenKernel, seenPolicy := map[string]bool{}, map[string]bool{}
	for _, c := range cells {
		if !seenPolicy[c.Policy] {
			seenPolicy[c.Policy] = true
			st.policies = append(st.policies, c.Policy)
		}
		descs, err := c.descs()
		if err != nil {
			return nil, err
		}
		for app, d := range descs {
			seed := cfg.Seed + int64(app)*31
			var ks kernelStream
			switch {
			case d.GPU != nil:
				if seenKernel[d.GPU.ID] {
					continue
				}
				seenKernel[d.GPU.ID] = true
				maxOut := d.GPU.MaxOutstanding
				if maxOut <= 0 {
					maxOut = cfg.GPU.MaxOutstanding
				}
				ks = kernelStream{
					label:  d.GPU.ID,
					gen:    workload.NewGPUGen(*d.GPU, st.mapper, d.SMs, app, d.Base, seed, d.Scale, &ids),
					params: gpu.IssueParams{Interval: d.GPU.Interval, PerSlot: 1, MaxOutstanding: maxOut},
				}
			default:
				if seenKernel[d.PIM.ID] {
					continue
				}
				seenKernel[d.PIM.ID] = true
				warps := cfg.Memory.Channels / len(d.SMs)
				ks = kernelStream{
					label:  d.PIM.ID,
					gen:    workload.NewPIMGen(*d.PIM, st.mapper, d.SMs, warps, cfg.PIM.RFPerBank(), app, d.Scale, &ids),
					params: gpu.IssueParams{Interval: 1, PerSlot: warps, MaxOutstanding: 1 << 30},
					pim:    true,
				}
			}
			ks.seed, ks.sms = seed, d.SMs
			drain(&ks, streamLimit, true)
			st.kernels = append(st.kernels, ks)
		}
	}
	return st, nil
}

// flat returns the kept requests of the kernels selected by pim, in issue
// order (round robin over slots), optionally only those of one channel.
func (st *streams) flat(pim bool, channel int) []*request.Request {
	var out []*request.Request
	for _, ks := range st.kernels {
		if ks.pim != pim {
			continue
		}
		for i := 0; ; i++ {
			any := false
			for _, slot := range ks.slots {
				if i < len(slot) {
					any = true
					if r := slot[i]; channel < 0 || r.Channel == channel {
						out = append(out, r)
					}
				}
			}
			if !any {
				break
			}
		}
		if pim && channel >= 0 && len(out) > 0 {
			break // one PIM kernel: blocks must stay in order within a channel
		}
	}
	return out
}

// sink keeps driver results alive so the compiler cannot drop the calls.
var sink uint64

// driveWorkload times Generator.Next, allocation of the request included.
func (st *streams) driveWorkload() float64 {
	k := 0
	return st.nsPerOp(func() int {
		ks := &st.kernels[k%len(st.kernels)]
		k++
		return drain(ks, streamLimit, false)
	})
}

// driveAddrmap times Mapper.Decode over the stream's addresses.
func (st *streams) driveAddrmap() float64 {
	reqs := append(st.flat(false, -1), st.flat(true, -1)...)
	return st.nsPerOp(func() int {
		for _, r := range reqs {
			sink += uint64(st.mapper.Decode(r.Addr).Row)
		}
		return len(reqs)
	})
}

// driveCache times Slice.Access on one L2 slice with channel 0's MEM
// requests; a miss is filled at once, so the cost includes the MSHR round
// trip.
func (st *streams) driveCache(reqs []*request.Request) float64 {
	slice := cache.NewSlice(st.cfg.Cache, st.cfg.Cache.SliceBytes(st.cfg.Memory.Channels))
	return st.nsPerOp(func() int {
		for _, r := range reqs {
			if res, fwd := slice.Access(r, 2); res == cache.Miss {
				sink += uint64(len(slice.Fill(fwd[0])))
			}
		}
		return len(reqs)
	})
}

// driveNoC times Network.Tick with the ports loaded from the stream and
// the outputs draining, as in a run.
func (st *streams) driveNoC() float64 {
	reqs := append(st.flat(false, -1), st.flat(true, -1)...)
	n := noc.New(st.cfg)
	next := 0
	return st.nsPerOp(func() int {
		const ticks = 1024
		for t := 0; t < ticks; t++ {
			for k := 0; k < 4; k++ {
				r := reqs[next%len(reqs)]
				if n.Inject(r.SM, r) {
					next++
				}
			}
			n.Tick()
			for ch := 0; ch < st.cfg.Memory.Channels; ch++ {
				q := n.Output(ch)
				for _, vc := range []noc.VCID{noc.VCMem, noc.VCPim} {
					if q.LenVC(vc) > 0 {
						q.Pop(vc)
					}
				}
			}
		}
		return ticks
	})
}

// replayGen hands a kernel the requests already generated, so the gpu
// driver times Kernel.Tick without the generator underneath it.
type replayGen struct {
	slots [][]*request.Request
	pos   []int
	total int
}

func (g *replayGen) Next(slot int) *request.Request {
	if g.pos[slot] >= len(g.slots[slot]) {
		return nil
	}
	r := g.slots[slot][g.pos[slot]]
	g.pos[slot]++
	return r
}
func (g *replayGen) Total() int { return g.total }
func (g *replayGen) Reset(int64) {
	for i := range g.pos {
		g.pos[i] = 0
	}
}
func (g *replayGen) Slots() int { return len(g.slots) }

// driveGPU times Kernel.Tick; every injected request is accepted and
// retired in the same cycle, so the kernel issues at its own pace.
func (st *streams) driveGPU() float64 {
	var kernels []*gpu.Kernel
	for _, ks := range st.kernels {
		g := &replayGen{slots: ks.slots, pos: make([]int, len(ks.slots))}
		for _, s := range ks.slots {
			g.total += len(s)
		}
		k := gpu.NewKernel(0, ks.label, g, ks.sms, ks.params, ks.seed)
		k.Start(0)
		kernels = append(kernels, k)
	}
	var issued []*request.Request
	inject := func(_ int, r *request.Request) bool {
		issued = append(issued, r)
		return true
	}
	var now uint64
	return st.nsPerOp(func() int {
		const ticks = 4096
		for t := 0; t < ticks; t++ {
			k := kernels[t%len(kernels)]
			now++
			k.Tick(now, inject)
			for _, r := range issued {
				k.OnComplete(r, now)
			}
			issued = issued[:0]
			if k.RunDone() {
				k.Restart(now)
			}
		}
		return ticks
	})
}

// driveMemctrl times Controller.Tick on one channel kept loaded from the
// stream, and — from a second run that also asks NextEvent four times a
// cycle — Controller.NextEvent. Both are means over the workload's
// policies.
func (st *streams) driveMemctrl() (tickNS, nextEventNS float64, err error) {
	mem, pimReqs := st.flat(false, 0), st.flat(true, 0)
	if len(mem) == 0 && len(pimReqs) == 0 {
		return 0, 0, fmt.Errorf("bench: no channel-0 requests to drive the controller with")
	}
	const extra = 4
	run := func(policy string, nextEvents int) float64 {
		var chst stats.Channel
		c := memctrl.New(0, st.cfg, core.NewPolicy(policy, st.cfg.Sched), &chst, nil)
		mi, pi := 0, 0
		// A request object must not be queued twice, so a short stream
		// keeps the queues shallower than itself.
		refill := func() {
			for mq, _ := c.QueueLens(); mq < len(mem)/4 && c.CanAccept(request.MemRead); mq++ {
				c.Enqueue(mem[mi%len(mem)])
				mi++
			}
			for _, pq := c.QueueLens(); pq < len(pimReqs)/4 && c.CanAccept(request.PIMOp); pq++ {
				if pi%len(pimReqs) == 0 && pi > 0 {
					// The stream wraps to block 0: a new launch, once
					// the previous one has left the queue.
					if pq > 0 {
						break
					}
					c.Units().Reset()
				}
				c.Enqueue(pimReqs[pi%len(pimReqs)])
				pi++
			}
		}
		var now uint64
		return st.nsPerOp(func() int {
			const ticks = 4096
			for t := 0; t < ticks; t++ {
				if t%32 == 0 {
					refill()
				}
				now++
				c.Tick(now)
				for k := 0; k < nextEvents; k++ {
					sink += c.NextEvent(now)
				}
			}
			return ticks
		})
	}
	for _, p := range st.policies {
		plain := run(p, 0)
		tickNS += plain
		if d := run(p, extra) - plain; d > 0 {
			nextEventNS += d / extra
		}
	}
	n := float64(len(st.policies))
	return tickNS / n, nextEventNS / n, nil
}

// stubView is a controller state for the policy driver to decide on.
type stubView struct {
	now        uint64
	mode       sched.Mode
	memQ, pimQ int
	oldest     sched.Mode
	memHit     bool
	pimOpen    bool
}

func (v *stubView) Now() uint64                       { return v.now }
func (v *stubView) Mode() sched.Mode                  { return v.mode }
func (v *stubView) MemQLen() int                      { return v.memQ }
func (v *stubView) PIMQLen() int                      { return v.pimQ }
func (v *stubView) OldestOverall() (sched.Mode, bool) { return v.oldest, v.memQ+v.pimQ > 0 }
func (v *stubView) MemRowHitAvailable() bool          { return v.memHit }
func (v *stubView) PIMHeadRowOpen() bool              { return v.pimOpen }

// drivePolicy times one scheduling decision — DesiredMode plus the
// OnIssue that follows an issue — on a view that walks through contended
// states, as a mean over the workload's policies.
func (st *streams) drivePolicy() float64 {
	var total float64
	for _, name := range st.policies {
		p := core.NewPolicy(name, st.cfg.Sched)
		v := &stubView{}
		total += st.nsPerOp(func() int {
			const decisions = 4096
			for i := 0; i < decisions; i++ {
				v.now++
				v.memQ, v.pimQ = i%64, (i/3)%64
				v.oldest = sched.Mode(i / 5 % 2)
				v.memHit, v.pimOpen = i%3 != 0, i%4 != 0
				want := p.DesiredMode(v)
				if want != v.mode {
					p.OnSwitch(v, want)
					v.mode = want
				}
				p.OnIssue(v, sched.IssueInfo{Mode: v.mode, RowHit: v.memHit, BypassedOlderOtherMode: i%7 == 0})
			}
			return decisions
		})
	}
	return total / float64(len(st.policies))
}

// driveDRAM times the channel's command interface: channel 0's requests
// are served in order, each command issued at the first cycle its Can*
// predicate allows, MEM and PIM in alternating bursts when the workload
// has both. Refresh is off so the driver need not schedule it. The cost is
// per issued command (ACT, PRE, column, lockstep op), predicate polling
// included.
func (st *streams) driveDRAM() (float64, error) {
	mem, pimReqs := st.flat(false, 0), st.flat(true, 0)
	if len(mem) == 0 && len(pimReqs) == 0 {
		return 0, fmt.Errorf("bench: no channel-0 requests to drive the DRAM channel with")
	}
	memCfg := st.cfg.Memory
	memCfg.Timing.TREFI = 0
	ch := dram.NewChannel(memCfg, st.cfg.PIM, nil)
	var now uint64
	mi, pi := 0, 0
	serveMEM := func(r *request.Request) int {
		cmds := 0
		for {
			now++
			state, row := ch.State(r.Bank)
			switch {
			case state == dram.Open && row == r.Row:
				if ch.CanColumn(r.Bank, r.Row, r.IsWrite(), now) {
					ch.Column(r.Bank, r.Row, r.IsWrite(), now)
					return cmds + 1
				}
			case state == dram.Open:
				if ch.CanPrecharge(r.Bank, now) {
					ch.Precharge(r.Bank, now)
					cmds++
				}
			default:
				if ch.CanActivate(r.Bank, now) {
					ch.Activate(r.Bank, r.Row, now)
					cmds++
				}
			}
		}
	}
	servePIM := func(r *request.Request) int {
		cmds := 0
		for {
			now++
			switch {
			case ch.PIMRowOpen(r.Row):
				if ch.CanPIMOp(r.Row, now) {
					ch.PIMOp(r.Row, true, now)
					return cmds + 1
				}
			case ch.NeedsPIMPrecharge():
				if ch.CanPIMPrechargeAll(now) {
					ch.PIMPrechargeAll(now)
					cmds++
				}
			default:
				if ch.CanPIMActivateAll(now) {
					ch.PIMActivateAll(r.Row, now)
					cmds++
				}
			}
		}
	}
	return st.nsPerOp(func() int {
		const burst = 64
		cmds := 0
		for i := 0; i < burst && len(mem) > 0; i++ {
			cmds += serveMEM(mem[mi%len(mem)])
			mi++
		}
		for i := 0; i < burst && len(pimReqs) > 0; i++ {
			cmds += servePIM(pimReqs[pi%len(pimReqs)])
			pi++
		}
		return cmds
	}), nil
}
