// Package gpu models the streaming multiprocessors as request engines:
// each kernel occupies a set of SMs, and each SM issues the kernel's
// memory request stream (produced by a workload generator) at the
// kernel's intensity, bounded by a per-SM outstanding-request window and
// by interconnect backpressure. This captures exactly the behavior the
// paper's results depend on — how fast each kernel *tries* to inject
// requests, and how it stalls when the memory subsystem denies service.
package gpu

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/request"
	"repro/internal/workload"
)

// IssueParams fixes the issue timing of a kernel's SMs.
type IssueParams struct {
	// Interval is the GPU cycles between issue opportunities per SM
	// (the kernel's arithmetic intensity).
	Interval int
	// PerSlot is the maximum requests issued per opportunity (4 for
	// PIM kernels: one per warp).
	PerSlot int
	// MaxOutstanding bounds in-flight requests per SM; requests retire
	// on completion callbacks.
	MaxOutstanding int
}

// InjectFunc attempts to inject a request at the given SM's interconnect
// port, returning false when the port is full.
type InjectFunc func(smID int, r *request.Request) bool

type slot struct {
	nextIssue   uint64
	pending     *request.Request
	outstanding int
	exhausted   bool
}

// Kernel is one running kernel instance: a generator, the SMs it owns,
// and their issue state.
type Kernel struct {
	app    int
	label  string
	gen    workload.Generator
	params IssueParams
	smIDs  []int
	smSlot []int // SM id -> slot index, -1 for SMs the kernel does not own
	slots  []slot

	issued    int
	completed int
	total     int

	startCycle  uint64
	firstFinish uint64
	finished    bool
	runs        int
	baseSeed    int64

	// StallCycles counts SM-cycles in which a generated request was
	// denied injection (interconnect backpressure).
	StallCycles uint64
}

// NewKernel builds a kernel running on the generator's SM slots. label
// names the kernel in reports.
func NewKernel(app int, label string, gen workload.Generator, smIDs []int, params IssueParams, seed int64) *Kernel {
	if gen.Slots() != len(smIDs) {
		panic(fmt.Sprintf("gpu: generator has %d slots but %d SMs supplied", gen.Slots(), len(smIDs)))
	}
	maxSM := -1
	for _, sm := range smIDs {
		if sm > maxSM {
			maxSM = sm
		}
	}
	k := &Kernel{
		app:      app,
		label:    label,
		gen:      gen,
		params:   params,
		smIDs:    smIDs,
		smSlot:   make([]int, maxSM+1),
		slots:    make([]slot, len(smIDs)),
		total:    gen.Total(),
		baseSeed: seed,
	}
	for sm := range k.smSlot {
		k.smSlot[sm] = -1
	}
	for i, sm := range smIDs {
		k.smSlot[sm] = i
	}
	return k
}

// App returns the kernel's application ID.
func (k *Kernel) App() int { return k.app }

// Label returns the kernel's report name.
func (k *Kernel) Label() string { return k.label }

// Total returns the kernel's request count per run.
func (k *Kernel) Total() int { return k.total }

// Issued and Completed report progress within the current run.
func (k *Kernel) Issued() int    { return k.issued }
func (k *Kernel) Completed() int { return k.completed }

// Finished reports whether the kernel has completed at least one full run.
func (k *Kernel) Finished() bool { return k.finished }

// FirstFinish returns the GPU cycle at which the first run completed
// (valid only when Finished).
func (k *Kernel) FirstFinish() uint64 { return k.firstFinish }

// Runs returns how many runs have started (1 after launch).
func (k *Kernel) Runs() int { return k.runs }

// Start launches the first run at the given cycle.
func (k *Kernel) Start(now uint64) {
	k.runs = 1
	k.startCycle = now
	k.gen.Reset(k.baseSeed)
	for i := range k.slots {
		k.slots[i] = slot{nextIssue: now}
	}
	k.issued, k.completed = 0, 0
}

// Restart begins a fresh run (used to keep generating contention until the
// co-running kernel completes, per Sec. III-B's run-in-a-loop protocol).
func (k *Kernel) Restart(now uint64) {
	k.runs++
	k.startCycle = now
	k.gen.Reset(k.baseSeed + int64(k.runs)*104729)
	for i := range k.slots {
		k.slots[i] = slot{nextIssue: now}
	}
	k.issued, k.completed = 0, 0
}

// RunDone reports whether the current run has issued and completed all of
// its requests.
func (k *Kernel) RunDone() bool {
	return k.issued >= k.total && k.completed >= k.issued
}

// Tick advances every SM of the kernel by one GPU cycle, injecting
// requests through inject.
func (k *Kernel) Tick(now uint64, inject InjectFunc) {
	for i := range k.slots {
		s := &k.slots[i]
		smID := k.smIDs[i]

		// Retry a request that was denied injection earlier.
		if s.pending != nil {
			if !inject(smID, s.pending) {
				k.StallCycles++
				continue
			}
			k.issued++
			s.pending = nil
			// The issue clock legitimately freezes while a slot is
			// backpressured (the per-cycle engine skips the advance on
			// pending retries), and on resolution the slot issues
			// immediately with the stale clock. Do not grid-sync it.
		} else if s.nextIssue < now && !s.exhausted {
			// Lazy issue-clock sync: a slot at its outstanding cap is
			// skipped by the event engine, while the per-cycle engine
			// advances its issue clock by Interval whenever the clock
			// comes due (the attempt itself is a no-op at the cap). The
			// trajectory is a closed-form grid — each advance fires
			// exactly at the clock's value and rebases it Interval later
			// — so entering cycle `now` the per-cycle engine holds the
			// smallest grid point >= now. A lagging clock on a
			// non-pending slot can only mean skipped capped cycles.
			iv := uint64(k.params.Interval)
			s.nextIssue += iv * ((now - s.nextIssue + iv - 1) / iv)
		}
		if s.exhausted || now < s.nextIssue {
			continue
		}
		s.nextIssue = now + uint64(k.params.Interval)
		for n := 0; n < k.params.PerSlot; n++ {
			if s.outstanding >= k.params.MaxOutstanding {
				break
			}
			r := k.gen.Next(i)
			if r == nil {
				s.exhausted = true
				break
			}
			s.outstanding++
			if inject(smID, r) {
				k.issued++
			} else {
				s.pending = r
				k.StallCycles++
				break
			}
		}
	}
}

// NextEvent returns the earliest GPU cycle strictly after now at which
// Tick could change observable kernel state, assuming no completions
// arrive in between — the sim wakes the kernel whenever it delivers one.
// A slot with a pending (backpressured) request retries every cycle, so
// it pins the event to now+1. Exhausted slots never act again. A slot at
// its outstanding cap cannot issue until a completion (an external wake)
// frees it; its only per-cycle mutation is the issue-clock advance, which
// Tick reproduces lazily in closed form, so capped slots are skipped.
func (k *Kernel) NextEvent(now uint64) uint64 {
	next := ^uint64(0)
	for i := range k.slots {
		s := &k.slots[i]
		if s.pending != nil {
			return now + 1
		}
		if s.exhausted || s.outstanding >= k.params.MaxOutstanding {
			continue
		}
		if s.nextIssue <= now {
			return now + 1
		}
		if s.nextIssue < next {
			next = s.nextIssue
		}
	}
	return next
}

// CapParked reports whether the slot on smID waits on a completion: at its
// outstanding cap with requests left to issue. That is the one slot state a
// completion changes for NextEvent, so only a completion on such a slot
// needs the kernel woken; ask before OnComplete.
func (k *Kernel) CapParked(smID int) bool {
	s := &k.slots[k.smSlot[smID]]
	return s.outstanding >= k.params.MaxOutstanding && !s.exhausted
}

// OnComplete retires a finished request belonging to this kernel. It
// returns true when this completion finished the current run. The kernel
// keeps no reference to r and does not dispose of it: the caller owns the
// request's end of life (the sim returns it to its pool; a replay driver
// may hand the same object out again).
func (k *Kernel) OnComplete(r *request.Request, now uint64) bool {
	if r.SM < 0 || r.SM >= len(k.smSlot) || k.smSlot[r.SM] < 0 {
		panic(fmt.Sprintf("gpu: completion for foreign SM %d", r.SM)) //pimlint:coldpath
	}
	s := &k.slots[k.smSlot[r.SM]]
	if invariant.Enabled {
		// More completions than issues on this SM: with recycled request
		// objects that is a use-after-release, not a tolerable glitch.
		invariant.Assert(s.outstanding > 0, "gpu: kernel %s SM %d: completion of %v with nothing outstanding", k.label, r.SM, r) //pimlint:coldpath — simdebug builds only
	}
	if s.outstanding > 0 {
		s.outstanding--
	}
	k.completed++
	if k.RunDone() {
		if !k.finished {
			k.finished = true
			k.firstFinish = now
		}
		return true
	}
	return false
}

// Held returns how many generated requests the kernel is holding for an
// injection retry (at most one per SM).
func (k *Kernel) Held() int {
	n := 0
	for i := range k.slots {
		if k.slots[i].pending != nil {
			n++
		}
	}
	return n
}

// Outstanding returns the kernel's total in-flight requests (tests).
func (k *Kernel) Outstanding() int {
	n := 0
	for i := range k.slots {
		n += k.slots[i].outstanding
	}
	return n
}
