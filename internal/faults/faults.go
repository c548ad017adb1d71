// Package faults is a deterministic, seed-driven fault-injection layer
// for the simulated memory system. A Schedule describes the transient
// fault processes to model — DRAM read retries / ECC-correction delays
// (extra cycles added to a CAS), NoC link stalls (one virtual channel of
// an injection link blocked for N cycles), and periodic whole-channel
// throttling windows — and an Injector realizes them with independent
// splitmix64 streams per injection site, so a given (seed, schedule)
// always produces the bit-identical fault sequence regardless of host,
// goroutine scheduling, or wall clock.
//
// The simulator holds the Injector behind a nil-safe handle: every query
// method is a no-op on a nil receiver, so a run without a fault schedule
// executes the exact instruction sequence it does today (pinned by
// TestZeroFaultScheduleBitIdentical).
//
// The package imports only the standard library, so internal/config can
// embed a Schedule without an import cycle.
package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Schedule describes a deterministic fault process. The zero value
// disables all injection.
type Schedule struct {
	// Seed drives every fault stream; 0 lets the simulator substitute
	// its own config seed, so faulty runs stay reproducible by default.
	Seed int64 `json:"seed,omitempty"`

	// DRAMRetryProb is the per-column-command probability of an ECC
	// correction / read retry that adds DRAMRetryCycles DRAM cycles to
	// the command's completion (and holds the bank through them).
	DRAMRetryProb   float64 `json:"dram_retry_prob,omitempty"`
	DRAMRetryCycles int64   `json:"dram_retry_cycles,omitempty"`

	// NoCStallProb is the per-link per-GPU-cycle probability that one
	// virtual channel of an SM injection link stalls (sends nothing) for
	// NoCStallCycles cycles. Under VC1 the whole link stalls.
	NoCStallProb   float64 `json:"noc_stall_prob,omitempty"`
	NoCStallCycles int64   `json:"noc_stall_cycles,omitempty"`

	// ThrottlePeriod/ThrottleWindow define periodic whole-channel
	// throttling (e.g. thermal or refresh-management windows): every
	// ThrottlePeriod DRAM cycles each channel issues no new commands for
	// ThrottleWindow cycles, at a seed-derived per-channel phase so the
	// channels do not throttle in lockstep. Both must be positive to
	// enable; in-flight requests still complete during a window.
	ThrottlePeriod uint64 `json:"throttle_period,omitempty"`
	ThrottleWindow uint64 `json:"throttle_window,omitempty"`
}

// Active reports whether the schedule injects anything at all.
func (s Schedule) Active() bool {
	return s.DRAMRetryProb > 0 || s.NoCStallProb > 0 || s.throttles()
}

// throttles reports whether throttle windows are configured.
func (s Schedule) throttles() bool { return s.ThrottlePeriod > 0 && s.ThrottleWindow > 0 }

// Effective returns s with every field the injector never reads zeroed:
// the cycles of a clause whose probability is zero, a throttle period
// without a window, and all of an inactive schedule, seed included.
// Two schedules with the same Effective value inject the same faults.
func (s Schedule) Effective() Schedule {
	if !s.Active() {
		return Schedule{}
	}
	if s.DRAMRetryProb == 0 {
		s.DRAMRetryCycles = 0
	}
	if s.NoCStallProb == 0 {
		s.NoCStallCycles = 0
	}
	if !s.throttles() {
		s.ThrottlePeriod, s.ThrottleWindow = 0, 0
	}
	return s
}

// Validate checks the schedule's internal consistency.
func (s Schedule) Validate() error {
	switch {
	case s.DRAMRetryProb < 0 || s.DRAMRetryProb > 1:
		return fmt.Errorf("faults: DRAM retry probability must be in [0,1], got %g", s.DRAMRetryProb)
	case s.DRAMRetryProb > 0 && s.DRAMRetryCycles <= 0:
		return fmt.Errorf("faults: DRAM retry needs positive extra cycles, got %d", s.DRAMRetryCycles)
	case s.NoCStallProb < 0 || s.NoCStallProb > 1:
		return fmt.Errorf("faults: NoC stall probability must be in [0,1], got %g", s.NoCStallProb)
	case s.NoCStallProb > 0 && s.NoCStallCycles <= 0:
		return fmt.Errorf("faults: NoC stall needs positive duration, got %d", s.NoCStallCycles)
	case s.ThrottleWindow > 0 && s.ThrottlePeriod == 0:
		return fmt.Errorf("faults: throttle window without a period")
	case s.ThrottlePeriod > 0 && s.ThrottleWindow >= s.ThrottlePeriod:
		return fmt.Errorf("faults: throttle window %d must be below the period %d", s.ThrottleWindow, s.ThrottlePeriod)
	}
	return nil
}

// String renders the schedule in the ParseSchedule format.
func (s Schedule) String() string {
	if !s.Active() && s.Seed == 0 {
		return ""
	}
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if s.DRAMRetryProb > 0 {
		parts = append(parts, fmt.Sprintf("dram=%g:%d", s.DRAMRetryProb, s.DRAMRetryCycles))
	}
	if s.NoCStallProb > 0 {
		parts = append(parts, fmt.Sprintf("noc=%g:%d", s.NoCStallProb, s.NoCStallCycles))
	}
	if s.throttles() {
		parts = append(parts, fmt.Sprintf("throttle=%d:%d", s.ThrottlePeriod, s.ThrottleWindow))
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the CLI fault-schedule syntax:
//
//	seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000
//
// where dram=<prob>:<extra cycles>, noc=<prob>:<stall cycles> and
// throttle=<period>:<window> (DRAM cycles). Every clause is optional; an
// empty string yields the zero (inactive) schedule.
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return Schedule{}, fmt.Errorf("faults: clause %q is not key=value", clause)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: seed %q: %v", val, err)
			}
			s.Seed = n
		case "dram":
			prob, cycles, err := parseRate(val)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: dram %q: %v", val, err)
			}
			s.DRAMRetryProb, s.DRAMRetryCycles = prob, cycles
		case "noc":
			prob, cycles, err := parseRate(val)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: noc %q: %v", val, err)
			}
			s.NoCStallProb, s.NoCStallCycles = prob, cycles
		case "throttle":
			p, w, ok := strings.Cut(val, ":")
			if !ok {
				return Schedule{}, fmt.Errorf("faults: throttle %q wants period:window", val)
			}
			period, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: throttle period %q: %v", p, err)
			}
			window, err := strconv.ParseUint(w, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("faults: throttle window %q: %v", w, err)
			}
			s.ThrottlePeriod, s.ThrottleWindow = period, window
		default:
			return Schedule{}, fmt.Errorf("faults: unknown clause %q (want seed/dram/noc/throttle)", key)
		}
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

func parseRate(val string) (prob float64, cycles int64, err error) {
	p, c, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want probability:cycles")
	}
	if prob, err = strconv.ParseFloat(p, 64); err != nil {
		return 0, 0, err
	}
	if cycles, err = strconv.ParseInt(c, 10, 64); err != nil {
		return 0, 0, err
	}
	return prob, cycles, nil
}

// Counts are the cumulative injected-fault totals of one run.
type Counts struct {
	// DRAMRetries counts column commands hit by an ECC retry;
	// DRAMRetryCycles the total extra DRAM cycles they added.
	DRAMRetries     uint64 `json:"dram_retries"`
	DRAMRetryCycles uint64 `json:"dram_retry_cycles"`
	// NoCLinkStalls counts stall events; NoCLinkStallCycles the total
	// link-cycles lost to them.
	NoCLinkStalls      uint64 `json:"noc_link_stalls"`
	NoCLinkStallCycles uint64 `json:"noc_link_stall_cycles"`
	// ThrottledCycles counts channel-cycles spent inside throttle
	// windows.
	ThrottledCycles uint64 `json:"throttled_cycles"`
}

// splitmix64 is the per-site PRNG: tiny state, excellent diffusion, and
// a counter-free API (the state itself is the stream position).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

type chanFaults struct {
	casRNG        uint64
	throttlePhase uint64
	// The channel's fault counts: ECC retries, the DRAM cycles they
	// added, and cycles spent inside throttle windows.
	retries, retryCycles, throttledCount uint64
}

type linkFaults struct {
	rng       uint64
	stallLeft int64
	stalledVC int8
}

// Injector realizes a Schedule over a machine shape. All query methods
// are nil-receiver safe (no faults); a non-nil Injector belongs to one
// simulation and must only be queried from its goroutine.
type Injector struct {
	sched Schedule
	chans []chanFaults
	links []linkFaults
	// linkStalls and linkStallCycles are the link-stall totals, which
	// belong to no channel.
	linkStalls, linkStallCycles uint64
}

// NewInjector builds an injector for channels memory channels and links
// SM injection links. It returns nil when the schedule is inactive, so
// callers can wire the result unconditionally.
func NewInjector(s Schedule, channels, links int) *Injector {
	if !s.Active() {
		return nil
	}
	in := &Injector{
		sched: s,
		chans: make([]chanFaults, channels),
		links: make([]linkFaults, links),
	}
	seed := uint64(s.Seed)
	for ch := range in.chans {
		// One independent stream per channel, plus a seed-derived
		// throttle phase spreading windows across channels.
		st := seed ^ (0xD1B54A32D192ED03 * uint64(ch+1))
		in.chans[ch].casRNG = splitmix64(&st)
		if s.ThrottlePeriod > 0 {
			in.chans[ch].throttlePhase = splitmix64(&st) % s.ThrottlePeriod
		}
	}
	for l := range in.links {
		st := seed ^ (0x9E6C63D0876A9A47 * uint64(l+1))
		in.links[l].rng = splitmix64(&st)
		in.links[l].stalledVC = -1
	}
	return in
}

// Schedule returns the realized schedule (zero for a nil injector).
func (in *Injector) Schedule() Schedule {
	if in == nil {
		return Schedule{}
	}
	return in.sched
}

// CASDelay returns the extra DRAM cycles an ECC retry adds to the column
// command a channel ch controller just issued (0 almost always). The
// caller must invoke it exactly once per column command so the stream
// stays aligned with the command sequence.
func (in *Injector) CASDelay(ch int) uint64 {
	if in == nil || in.sched.DRAMRetryProb <= 0 {
		return 0
	}
	cf := &in.chans[ch]
	if unit(splitmix64(&cf.casRNG)) >= in.sched.DRAMRetryProb {
		return 0
	}
	extra := uint64(in.sched.DRAMRetryCycles)
	cf.retries++
	cf.retryCycles += extra
	return extra
}

// throttlePos returns channel ch's position within its throttle period at
// DRAM cycle now: the channel is throttled iff the position is below
// ThrottleWindow. Pure arithmetic on (now, phase), no stream state, so the
// throttle queries below may be called freely and in any order. The
// schedule must throttle.
func (in *Injector) throttlePos(ch int, now uint64) uint64 {
	return (now + in.chans[ch].throttlePhase) % in.sched.ThrottlePeriod
}

// Throttled reports whether channel ch sits inside a throttle window at
// DRAM cycle now. It does not count the cycle; ThrottledRange does.
func (in *Injector) Throttled(ch int, now uint64) bool {
	if in == nil || !in.sched.throttles() {
		return false
	}
	return in.throttlePos(ch, now) < in.sched.ThrottleWindow
}

// throttledBelow counts cycles t in [0, n) of channel phase offset with
// (t+phase) % period < window — the prefix form of the throttle process.
func (in *Injector) throttledBelow(phase, n uint64) uint64 {
	p, w := in.sched.ThrottlePeriod, in.sched.ThrottleWindow
	x := n + phase
	full := (x / p) * w
	if r := x % p; r < w {
		full += r
	} else {
		full += w
	}
	// Subtract the cycles contributed by the phase offset itself.
	pre := (phase / p) * w
	if r := phase % p; r < w {
		pre += r
	} else {
		pre += w
	}
	return full - pre
}

// ThrottledRange counts the throttled cycles of channel ch in [from, to]:
// it adds #{t in [from, to] : Throttled(ch, t)} to the channel's throttle
// count, in closed form. The controller calls it with a one-cycle range
// when it ticks and with the whole range when it was skipped; the count
// is additive, so the two are bit-identical.
func (in *Injector) ThrottledRange(ch int, from, to uint64) {
	if in == nil || !in.sched.throttles() || to < from {
		return
	}
	cf := &in.chans[ch]
	cf.throttledCount += in.throttledBelow(cf.throttlePhase+from, to-from+1)
}

// NextUnthrottled returns the earliest cycle >= now at which channel ch is
// outside its throttle window.
func (in *Injector) NextUnthrottled(ch int, now uint64) uint64 {
	if in == nil || !in.sched.throttles() {
		return now
	}
	if pos := in.throttlePos(ch, now); pos < in.sched.ThrottleWindow {
		return now + (in.sched.ThrottleWindow - pos)
	}
	return now
}

// LinkTick advances link l by one GPU cycle and returns the virtual
// channel stalled this cycle (-1 for none). The caller must invoke it
// exactly once per link per cycle. vcs is the number of virtual channels
// on the link (1 under VC1 — the whole link stalls — or 2 under VC2).
func (in *Injector) LinkTick(l, vcs int) int8 {
	if in == nil || in.sched.NoCStallProb <= 0 {
		return -1
	}
	lf := &in.links[l]
	if lf.stallLeft > 0 {
		lf.stallLeft--
		in.linkStallCycles++
		return lf.stalledVC
	}
	draw := splitmix64(&lf.rng)
	if unit(draw) >= in.sched.NoCStallProb {
		lf.stalledVC = -1
		return -1
	}
	lf.stallLeft = in.sched.NoCStallCycles - 1
	lf.stalledVC = 0
	if vcs > 1 {
		lf.stalledVC = int8((draw >> 60) % uint64(vcs))
	}
	in.linkStalls++
	in.linkStallCycles++
	return lf.stalledVC
}

// ChannelCounts returns channel ch's share of the fault totals: its ECC
// retries, the cycles they added and its throttled cycles. The link-stall
// fields stay zero; stalls belong to no channel.
func (in *Injector) ChannelCounts(ch int) Counts {
	if in == nil {
		return Counts{}
	}
	cf := &in.chans[ch]
	return Counts{DRAMRetries: cf.retries, DRAMRetryCycles: cf.retryCycles, ThrottledCycles: cf.throttledCount}
}

// Counts returns the cumulative fault totals: the channels' counts summed,
// plus the link stalls.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	c := Counts{NoCLinkStalls: in.linkStalls, NoCLinkStallCycles: in.linkStallCycles}
	for ch := range in.chans {
		cc := in.ChannelCounts(ch)
		c.DRAMRetries += cc.DRAMRetries
		c.DRAMRetryCycles += cc.DRAMRetryCycles
		c.ThrottledCycles += cc.ThrottledCycles
	}
	return c
}
