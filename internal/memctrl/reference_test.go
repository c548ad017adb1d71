package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/request"
	"repro/internal/sched"
)

// refScanMEM is the MEM candidate scan as the controller ran it before the
// per-bank entries: walk every bank, take the bank's oldest row hit if it
// has one and its oldest request otherwise — or, with row hits not allowed,
// only the MEM queue's head — and fold each candidate into the pick by
// reading the request itself. Everything is recomputed from the MEM queue
// and the DRAM state on every call; it shares only memNext (the
// request → command mapping) and memGates (the policy's answers) with the
// engine. Its deadline is the earliest issuable command: row hits' column
// deadlines and the chosen preparation's, never a younger conflict's.
func (c *Controller) refScanMEM(now uint64) memPick {
	p := memPick{next: never}
	if len(c.memQ) == 0 {
		return p
	}
	rowHits, conflictsOK := c.memGates()
	var cands []*request.Request
	if !rowHits {
		cands = c.memQ[:1]
	} else {
		for bank := 0; bank < c.mem.Banks; bank++ {
			var oldest, hit *request.Request
			for _, r := range c.memQ {
				if r.Bank != bank {
					continue
				}
				if oldest == nil {
					oldest = r
				}
				if c.ch.IsRowHit(bank, r.Row) {
					hit = r
					break
				}
			}
			switch {
			case hit != nil:
				cands = append(cands, hit)
			case oldest != nil:
				cands = append(cands, oldest)
			}
		}
	}
	for _, r := range cands {
		cmd, at := c.memNext(r.Bank, r.Row, r.IsWrite())
		switch {
		case cmd == cmdColumn:
			if at <= now && (p.col == nil || r.SeqNo < p.col.SeqNo) {
				p.col, p.colSeq = r, r.SeqNo
			}
			p.next = min(p.next, at)
		case !conflictsOK:
		case p.prep == nil || r.SeqNo < p.prep.SeqNo:
			p.prep, p.prepSeq, p.prepCmd, p.prepAt = r, r.SeqNo, cmd, at
		}
	}
	// The only preparation the pick would issue is the oldest conflict's.
	if p.prep != nil {
		p.next = min(p.next, p.prepAt)
	}
	return p
}

// issuable reports whether a pick issues a command at cycle now.
func (p memPick) issuable(now uint64) bool {
	return p.col != nil || p.prep != nil && p.prepAt <= now
}

// checkDeadlineTight asserts that the issue deadline d a quiet Tick at now
// left behind is the earliest issuable command: with the state frozen, the
// reference pick issues nothing at any cycle in (now, d), and at d it does.
func checkDeadlineTight(t *testing.T, c *Controller, now, d uint64) {
	t.Helper()
	for at := now + 1; at < d; at++ {
		if p := c.refScanMEM(at); p.issuable(at) {
			t.Fatalf("cycle %d: issue deadline %d, but the reference pick %+v issues at %d", now, d, p, at)
		}
	}
	if p := c.refScanMEM(d); !p.issuable(d) {
		t.Fatalf("cycle %d: issue deadline %d, but the reference pick %+v issues nothing then", now, d, p)
	}
}

// refRowHitAvailable is MemRowHitAvailable recomputed from the MEM queue.
func (c *Controller) refRowHitAvailable() bool {
	for _, r := range c.memQ {
		if c.ch.IsRowHit(r.Bank, r.Row) {
			return true
		}
	}
	return false
}

// gatedPolicy holds the MEM engine's two gates fixed and never leaves MEM
// mode, so each (row hits allowed, conflict service allowed) combination
// runs for a whole script.
type gatedPolicy struct{ rowHits, conflicts bool }

func (gatedPolicy) Name() string                                { return "gated" }
func (gatedPolicy) DesiredMode(sched.View) sched.Mode           { return sched.ModeMEM }
func (p gatedPolicy) MemRowHitsAllowed(sched.View) bool         { return p.rowHits }
func (p gatedPolicy) MemConflictServiceAllowed(sched.View) bool { return p.conflicts }
func (gatedPolicy) OnIssue(sched.View, sched.IssueInfo)         {}
func (gatedPolicy) OnSwitch(sched.View, sched.Mode)             {}

// TestScanMEMMatchesReference is the equivalence proof of the per-bank
// FR-FCFS entries: over random scripts of MEM arrivals concentrated on a
// few rows (so arrivals often hit an open row), PIM blocks (mode switches
// and broadcast row changes under the real policies), precharges issued
// behind the controller's back and, in the second configuration,
// auto-precharge and refresh, the scan over the entries must pick what the
// from-scratch reference picks — column candidate, preparation candidate,
// its command and deadline, and the issue deadline — after every arrival
// and every Tick, under every gate combination and FR-FCFS, FCFS and F3FS.
// After every Tick that issues nothing the deadline it leaves must also be
// tight: nothing issuable before it, something issuable at it.
func TestScanMEMMatchesReference(t *testing.T) {
	hard := config.Paper()
	hard.Memory.Page = config.PageClosed
	hard.Memory.Timing.TREFI = 1900
	hard.Memory.Timing.TRFC = 130
	cfgs := []struct {
		name string
		cfg  config.Config
	}{{"paper", config.Paper()}, {"closed-page/refresh", hard}}
	policies := []func() sched.Policy{
		func() sched.Policy { return gatedPolicy{true, true} },
		func() sched.Policy { return gatedPolicy{true, false} },
		func() sched.Policy { return gatedPolicy{false, true} },
		func() sched.Policy { return gatedPolicy{false, false} },
		func() sched.Policy { return sched.NewFRFCFS() },
		func() sched.Policy { return sched.NewFCFS() },
		func() sched.Policy { return core.NewF3FS(8, 8) },
	}
	for _, cc := range cfgs {
		for i, mk := range policies {
			pol := mk()
			name := pol.Name()
			if g, ok := pol.(gatedPolicy); ok {
				name = fmt.Sprintf("gated(rowHits=%v,conflicts=%v)", g.rowHits, g.conflicts)
			}
			t.Run(cc.name+"/"+name, func(t *testing.T) {
				runScanMEMReference(t, cc.cfg, pol, int64(i+1))
			})
		}
	}
}

func runScanMEMReference(t *testing.T, cfg config.Config, pol sched.Policy, seed int64) {
	const n = 12_000
	c := New(0, cfg, pol, nil, nil)
	rng := rand.New(rand.NewSource(seed))
	var cols, waits, hits, tight int
	check := func(now uint64, when string) {
		t.Helper()
		got, want := c.scanMEM(now), c.refScanMEM(now)
		if got != want {
			t.Fatalf("cycle %d, %s: scan picked %+v, the reference %+v", now, when, got, want)
		}
		hit := c.refRowHitAvailable()
		if got := c.vw.MemRowHitAvailable(); got != hit {
			t.Fatalf("cycle %d, %s: MemRowHitAvailable = %v, the reference %v", now, when, got, hit)
		}
		if want.col != nil {
			cols++
		}
		if want.col == nil && want.next > now && want.next != never {
			waits++
		}
		if hit {
			hits++
		}
	}
	block := 0
	for now := uint64(1); now < n; now++ {
		if rng.Intn(4) == 0 && c.CanAccept(request.MemRead) {
			c.Enqueue(memReq(0, rng.Intn(cfg.Memory.Banks), uint32(rng.Intn(4)), 0, rng.Intn(4) == 0))
			check(now, "after an arrival")
		}
		if rng.Intn(600) == 0 {
			for k := 0; k < 8 && c.CanAccept(request.PIMOp); k++ {
				c.Enqueue(pimReq(0, uint32(8+block%4), block, k, request.PIMLoad))
			}
			block++
		}
		// Row changes the controller did not ask for (its gates may forbid
		// every preparation), half of them toward the oldest request.
		if rng.Intn(40) == 0 {
			b, row := rng.Intn(cfg.Memory.Banks), uint32(rng.Intn(4))
			if len(c.memQ) > 0 && rng.Intn(2) == 0 {
				b, row = c.memQ[0].Bank, c.memQ[0].Row
			}
			switch {
			case c.ch.CanPrecharge(b, now) && !c.ch.IsRowHit(b, row):
				c.ch.Precharge(b, now)
			case c.ch.CanActivate(b, now):
				c.ch.Activate(b, row, now)
			}
			check(now, "after a foreign row change")
		}
		c.Tick(now)
		// issueKnown after a Tick in MEM mode: the issue stage ran and
		// issued nothing, leaving its deadline.
		if c.issueKnown && c.mode == sched.ModeMEM && c.issueAt != never {
			checkDeadlineTight(t, c, now, c.issueAt)
			tight++
		}
		check(now, "after Tick")
	}
	if cols == 0 || waits == 0 || hits == 0 || tight == 0 {
		t.Fatalf("vacuous script: %d checks with a column pick, %d waiting on a deadline, %d with a row hit queued, %d deadlines checked tight",
			cols, waits, hits, tight)
	}
}
