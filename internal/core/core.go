// Package core implements the paper's primary contribution:
//
//   - F3FS (First Mode-FR-FCFS, Sec. VII), a memory-controller scheduling
//     policy that adds an arbitration stage in front of FR-FCFS favoring
//     the *current* mode — priority order (1) current mode first, (2) row
//     buffer hit first, (3) oldest first — with per-mode CAPs on the
//     number of requests that may bypass an older request of the other
//     mode. Symmetric CAPs optimize competitive fairness; asymmetric CAPs
//     let collaborative applications favor their slower kernel.
//
//   - The proposed system configuration (Sec. V-A + Sec. VII): the VC2
//     interconnect (a separate virtual channel for PIM requests with the
//     total queue capacity held equal to the baseline) combined with F3FS.
//
// The remaining machinery — queues, within-mode engines, the baseline
// policies — lives in internal/sched, internal/memctrl and internal/noc;
// this package is deliberately small so the contribution is legible in
// one place.
package core

import (
	"repro/internal/config"
	"repro/internal/sched"
)

// F3FS is the First Mode-FR-FCFS policy. Age is the incrementing ID
// assigned to each request as it enters the memory controller (SeqNo);
// a "bypass" is the issue of a current-mode request while an older
// other-mode request waits. When the current mode's bypass count reaches
// its CAP and the oldest queued request belongs to the other mode, the
// controller switches; the count resets on every switch.
//
// The paper's Sec. VII-B discussion of kmeans (G11) motivates the exact
// trigger: reaching the CAP alone does not force a switch — if the oldest
// request is still from the current mode, servicing it is not a bypass and
// the controller stays put.
//
// Within MEM mode F3FS runs the default FR-FCFS engine: current mode first
// means conflicts are serviced in place rather than stalling for a switch,
// so it implements no sched.MemGate.
type F3FS struct {
	// MemCap and PIMCap are the per-mode bypass CAPs. The competitive
	// configuration uses symmetric caps (256/256, a multiple of the PIM
	// register-file size per bank to respect PIM block structure);
	// collaborative runs may set them asymmetrically (e.g. 256/128
	// under VC1).
	MemCap, PIMCap int

	bypasses int
}

// NewF3FS builds the policy with the given per-mode CAPs.
func NewF3FS(memCap, pimCap int) *F3FS {
	return &F3FS{MemCap: memCap, PIMCap: pimCap}
}

// Name implements sched.Policy.
func (*F3FS) Name() string { return "f3fs" }

func (p *F3FS) cap(m sched.Mode) int {
	if m == sched.ModePIM {
		return p.PIMCap
	}
	return p.MemCap
}

// DesiredMode implements sched.Policy: stay in the current mode while it
// has work and its bypass CAP is not exhausted against an older other-mode
// request.
func (p *F3FS) DesiredMode(v sched.View) sched.Mode {
	cur := v.Mode()
	curLen := v.MemQLen()
	otherLen := v.PIMQLen()
	if cur == sched.ModePIM {
		curLen, otherLen = otherLen, curLen
	}
	if curLen == 0 {
		if otherLen > 0 {
			return cur.Other()
		}
		return cur
	}
	if otherLen == 0 {
		return cur
	}
	if p.bypasses >= p.cap(cur) {
		if oldest, ok := v.OldestOverall(); ok && oldest != cur {
			return cur.Other()
		}
	}
	return cur
}

// OnIssue implements sched.Policy: count bypasses of older other-mode
// requests.
func (p *F3FS) OnIssue(_ sched.View, info sched.IssueInfo) {
	if info.BypassedOlderOtherMode {
		p.bypasses++
	}
}

// OnSwitch implements sched.Policy: the bypass window restarts with the
// new mode.
func (p *F3FS) OnSwitch(sched.View, sched.Mode) { p.bypasses = 0 }

// Bypasses exposes the current bypass count (for tests and the hardware
// discussion in EXPERIMENTS.md).
func (p *F3FS) Bypasses() int { return p.bypasses }

var _ sched.Policy = (*F3FS)(nil)

// PolicyNames lists the nine evaluated policies in the paper's order.
var PolicyNames = []string{
	"fcfs", "mem-first", "pim-first", "fr-fcfs", "fr-fcfs-cap",
	"bliss", "fr-rr-fcfs", "gather-issue", "f3fs",
}

// ExtensionPolicyNames lists additional policies this repository
// implements beyond the paper's evaluation: the Fig. 14a intermediate
// ablation point, and ITS and WEIS, which the related work discusses.
var ExtensionPolicyNames = []string{"mode-cap-fr-fcfs", "its", "weis"}

// NewPolicy builds a fresh per-channel policy instance by name using the
// knobs in cfg. It returns nil for an unknown name.
func NewPolicy(name string, cfg config.Sched) sched.Policy {
	switch name {
	case "fcfs":
		return sched.NewFCFS()
	case "mem-first":
		return sched.NewMemFirst()
	case "pim-first":
		return sched.NewPIMFirst()
	case "fr-fcfs":
		return sched.NewFRFCFS()
	case "fr-fcfs-cap":
		return sched.NewFRFCFSCap(cfg.FRFCFSCap)
	case "bliss":
		return sched.NewBLISS(cfg.BlissThreshold, cfg.BlissClearInterval)
	case "fr-rr-fcfs":
		return sched.NewFRRRFCFS()
	case "gather-issue":
		return sched.NewGatherIssue(cfg.GIHighWatermark, cfg.GILowWatermark)
	case "f3fs":
		return NewF3FS(cfg.F3FSMemCap, cfg.F3FSPIMCap)
	case "mode-cap-fr-fcfs":
		return NewModeCapFRFCFS(cfg.F3FSMemCap)
	case "its":
		return sched.NewITS()
	case "weis":
		return sched.NewWEIS()
	}
	return nil
}

// ReadsCaps reports which F3FS bypass caps policy name reads from
// config.Sched: f3fs reads both, mode-cap-fr-fcfs the MEM cap, and every
// other policy (the standalone baselines' fr-fcfs included) neither.
func ReadsCaps(name string) (mem, pim bool) {
	switch name {
	case "f3fs":
		return true, true
	case "mode-cap-fr-fcfs":
		return true, false
	}
	return false, false
}

// Factory returns a sched.PolicyFactory for name, or nil for an unknown
// name. Each call of the factory yields an independent per-channel
// instance.
func Factory(name string, cfg config.Sched) sched.PolicyFactory {
	if NewPolicy(name, cfg) == nil {
		return nil
	}
	return func() sched.Policy { return NewPolicy(name, cfg) }
}

// Proposed mutates cfg into the paper's full proposal: the VC2
// interconnect with F3FS scheduling, using the competitive symmetric CAPs
// unless the caller overrides them afterwards. It returns the policy name
// to pass to the simulator.
func Proposed(cfg *config.Config) string {
	cfg.NoC.Mode = config.VC2
	return "f3fs"
}
