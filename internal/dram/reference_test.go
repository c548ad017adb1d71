package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/stats"
)

// refBank is one bank of refChannel: every field the bank's timing depends
// on, held in the bank itself.
type refBank struct {
	state                                   BankState
	row                                     uint32
	group                                   int32
	actReady, colReady, preReady, busyUntil uint64
}

// refChannel is the channel in its plain per-bank layout: a lockstep
// command writes every bank, an all-bank question walks every bank, and
// there are no channel-level floors, counts or kept answers. Its activity
// sums are counted cycle range by cycle range on the windows as they stand
// before each command, not credited in closed form when a window moves.
type refChannel struct {
	t        config.DRAMTiming
	burst    uint64
	opCycles uint64
	dual     bool
	banks    []refBank

	lastAct      uint64
	actWindow    [4]uint64
	actIdx       int
	lastCol      uint64
	lastColGroup int32
	haveLastCol  bool
	busBusyUntil uint64

	lastWriteDataEnd, lastReadCmdAt uint64
	haveRead                        bool

	pimBusyUntil uint64

	dualOpen                               bool
	dualRow                                uint32
	dualColReady, dualPreReady, dualActRdy uint64

	nextRefreshAt uint64

	through, active, busySum uint64 // activity counted through cycle through

	activates, precharges uint64
	flt                   *faults.Injector
}

func newRefChannel(cfg config.Config) *refChannel {
	m := &refChannel{
		t:        cfg.Memory.Timing,
		burst:    max(uint64(cfg.Memory.BurstLength/2), 1),
		opCycles: uint64(cfg.PIM.OpCycles),
		dual:     cfg.PIM.DualRowBuffer,
		banks:    make([]refBank, cfg.Memory.Banks),
	}
	for i := range m.banks {
		m.banks[i].group = int32(i / (cfg.Memory.Banks / cfg.Memory.BankGroups))
	}
	if m.t.TREFI > 0 {
		m.nextRefreshAt = uint64(m.t.TREFI)
	}
	return m
}

// count adds cycles (through, to] to the activity sums on the current
// windows: a bank is busy at cycle c iff c < busyUntil.
func (m *refChannel) count(to uint64) {
	for c := m.through + 1; c <= to; c++ {
		busy := uint64(0)
		for i := range m.banks {
			if c < m.banks[i].busyUntil {
				busy++
			}
		}
		if busy > 0 {
			m.active++
		}
		m.busySum += busy
	}
	m.through = max(m.through, to)
}

func (m *refChannel) occupy(b *refBank, until uint64) { b.busyUntil = max(b.busyUntil, until) }

func (m *refChannel) busyBanks(now uint64) int {
	n := 0
	for i := range m.banks {
		if m.banks[i].busyUntil > now {
			n++
		}
	}
	return n
}

func (m *refChannel) nextActivateAt(i int) uint64 {
	b := &m.banks[i]
	if b.state != Closed {
		return never
	}
	at := b.actReady
	if m.lastAct != 0 {
		at = max(at, m.lastAct+uint64(m.t.TRRD))
	}
	if m.t.TFAW > 0 && m.actWindow[m.actIdx] != 0 {
		at = max(at, m.actWindow[m.actIdx]+uint64(m.t.TFAW))
	}
	return at
}

func (m *refChannel) nextPrechargeAt(i int) uint64 {
	if b := &m.banks[i]; b.state == Open {
		return b.preReady
	}
	return never
}

func (m *refChannel) dataDelay(write bool) uint64 {
	if write {
		return uint64(m.t.TWL)
	}
	return uint64(m.t.TCL)
}

func (m *refChannel) nextColumnAt(i int, row uint32, write bool) uint64 {
	b := &m.banks[i]
	if b.state != Open || b.row != row {
		return never
	}
	at := b.colReady
	if m.haveLastCol {
		gap := uint64(m.t.TCCDS)
		if b.group == m.lastColGroup {
			gap = uint64(m.t.TCCDL)
		}
		at = max(at, m.lastCol+gap)
	}
	if !write && m.t.TWTR > 0 && m.lastWriteDataEnd > 0 {
		at = max(at, m.lastWriteDataEnd+uint64(m.t.TWTR))
	}
	if write && m.t.TRTW > 0 && m.haveRead {
		at = max(at, m.lastReadCmdAt+uint64(m.t.TRTW))
	}
	if d := m.dataDelay(write); m.busBusyUntil > d {
		at = max(at, m.busBusyUntil-d)
	}
	return at
}

func (m *refChannel) nextPrechargeAllBanksAt() uint64 {
	var at uint64
	for i := range m.banks {
		if b := &m.banks[i]; b.state == Open {
			at = max(at, b.preReady)
		}
	}
	return at
}

func (m *refChannel) nextPIMPrechargeAllAt() uint64 {
	if !m.dual {
		return m.nextPrechargeAllBanksAt()
	}
	if !m.dualOpen {
		return 0
	}
	return m.dualPreReady
}

func (m *refChannel) nextRefreshOKAt() uint64 {
	var at uint64
	for i := range m.banks {
		b := &m.banks[i]
		if b.state != Closed {
			return never
		}
		at = max(at, b.actReady)
	}
	return at
}

func (m *refChannel) nextPIMActivateAllAt() uint64 {
	if !m.dual {
		return m.nextRefreshOKAt()
	}
	if m.dualOpen {
		return never
	}
	return m.dualActRdy
}

func (m *refChannel) nextPIMOpAt(row uint32) uint64 {
	at := m.pimBusyUntil
	if m.dual {
		if !m.dualOpen || m.dualRow != row {
			return never
		}
		return max(at, m.dualColReady)
	}
	for i := range m.banks {
		b := &m.banks[i]
		if b.state != Open || b.row != row {
			return never
		}
		at = max(at, b.colReady)
	}
	return at
}

func (m *refChannel) anyBankOpen() bool {
	for i := range m.banks {
		if m.banks[i].state == Open {
			return true
		}
	}
	return false
}

func (m *refChannel) needsPIMPrecharge() bool {
	if m.dual {
		return m.dualOpen
	}
	return m.anyBankOpen()
}

func (m *refChannel) activate(i int, row uint32, now uint64) {
	m.count(now)
	b := &m.banks[i]
	b.state, b.row = Open, row
	b.colReady = now + uint64(m.t.TRCD)
	b.preReady = now + uint64(m.t.TRAS)
	m.occupy(b, b.colReady)
	m.lastAct = now
	if m.t.TFAW > 0 {
		m.actWindow[m.actIdx] = now
		m.actIdx = (m.actIdx + 1) % len(m.actWindow)
	}
	m.activates++
}

func (m *refChannel) precharge(i int, now uint64) {
	m.count(now)
	b := &m.banks[i]
	b.state = Closed
	b.actReady = now + uint64(m.t.TRP)
	m.occupy(b, b.actReady)
	m.precharges++
}

func (m *refChannel) column(i int, write bool, now uint64) uint64 {
	m.count(now)
	b := &m.banks[i]
	dataEnd := now + m.dataDelay(write) + m.burst
	m.busBusyUntil = dataEnd
	m.lastCol, m.lastColGroup, m.haveLastCol = now, b.group, true
	var done uint64
	if write {
		done = dataEnd + uint64(m.t.TWR)
		b.preReady = max(b.preReady, done)
		m.lastWriteDataEnd = dataEnd
	} else {
		done = dataEnd
		b.preReady = max(b.preReady, now+uint64(m.t.TRTP))
		m.lastReadCmdAt, m.haveRead = now, true
	}
	m.occupy(b, done)
	if extra := m.flt.CASDelay(0); extra > 0 {
		done += extra
		m.occupy(b, done)
		if write {
			b.preReady = max(b.preReady, done)
		}
	}
	return done
}

func (m *refChannel) columnAP(i int, write bool, now uint64) uint64 {
	done := m.column(i, write, now)
	b := &m.banks[i]
	b.state = Closed
	b.actReady = b.preReady + uint64(m.t.TRP)
	m.occupy(b, b.actReady)
	return done
}

func (m *refChannel) prechargeAll(now uint64, byPIM bool) {
	m.count(now)
	m.precharges++
	if byPIM && m.dual {
		m.dualOpen = false
		m.dualActRdy = now + uint64(m.t.TRP)
		return
	}
	for i := range m.banks {
		if b := &m.banks[i]; b.state == Open {
			b.state = Closed
			b.actReady = now + uint64(m.t.TRP)
			m.occupy(b, b.actReady)
		}
	}
}

func (m *refChannel) refresh(now uint64) {
	m.count(now)
	until := now + uint64(m.t.TRFC)
	for i := range m.banks {
		m.banks[i].actReady = until
		m.occupy(&m.banks[i], until)
	}
	m.nextRefreshAt += uint64(m.t.TREFI)
}

func (m *refChannel) pimActivateAll(row uint32, now uint64) {
	m.count(now)
	m.activates++
	if m.dual {
		m.dualOpen, m.dualRow = true, row
		m.dualColReady = now + uint64(m.t.TRCD)
		m.dualPreReady = now + uint64(m.t.TRAS)
		return
	}
	for i := range m.banks {
		b := &m.banks[i]
		b.state, b.row = Open, row
		b.colReady = now + uint64(m.t.TRCD)
		b.preReady = now + uint64(m.t.TRAS)
		m.occupy(b, b.colReady)
	}
}

func (m *refChannel) pimOp(now uint64) uint64 {
	m.count(now)
	done := now + m.opCycles
	m.pimBusyUntil = done
	rtp := now + uint64(m.t.TRTP)
	for i := range m.banks {
		b := &m.banks[i]
		m.occupy(b, done)
		if !m.dual {
			b.preReady = max(b.preReady, rtp)
		}
	}
	if m.dual {
		m.dualPreReady = max(m.dualPreReady, rtp)
	}
	return done
}

// TestChannelMatchesPerBankModel drives Channel and refChannel with one
// seeded random stream of legal commands — per-bank ACT, PRE and RD/WR
// with and without auto-precharge (ECC retries extending some), PIM
// broadcast precharge and activate, lockstep ops, and refresh with its
// precharge-all — in MEM and PIM phases of random length that do not close
// the other phase's rows, so MEM commands land on banks a lockstep op left
// open and re-timed. After every command the two must agree on every
// deadline of every bank and of the channel, the row buffers, the busy
// banks now and ahead, and the published activity sums: a lockstep floor
// that misses a reader, or a kept all-bank answer that misses a transition,
// shows as a mismatch.
func TestChannelMatchesPerBankModel(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := config.Paper()
		cfg.PIM.DualRowBuffer = dual
		tm := &cfg.Memory.Timing
		tm.TREFI, tm.TRFC = 1900, 130
		tm.TFAW, tm.TWTR, tm.TRTW = 20, 4, 3
		sched := faults.Schedule{Seed: 3, DRAMRetryProb: 0.03, DRAMRetryCycles: 12}
		for _, seed := range []int64{1, 2, 3} {
			runChannelModel(t, cfg, sched, dual, seed)
		}
	}
}

func runChannelModel(t *testing.T, cfg config.Config, sched faults.Schedule, dual bool, seed int64) {
	t.Helper()
	const steps = 20000
	var st stats.Channel
	ch, m := NewChannel(cfg.Memory, cfg.PIM, &st), newRefChannel(cfg)
	ch.SetFaults(faults.NewInjector(sched, 1, 0), 0)
	m.flt = faults.NewInjector(sched, 1, 0)
	rng := rand.New(rand.NewSource(seed))
	banks := cfg.Memory.Banks
	var issued [9]int // activate, precharge, column, columnAP, PIM PRE, PIM ACT, PIM op, refresh PRE, refresh
	var now uint64
	pimPhase, phaseLeft := false, 0
	row := uint32(0)
	check := func(step int, what string) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("dual=%v seed %d step %d after %s at cycle %d: "+format,
				append([]any{dual, seed, step, what, now}, args...)...)
		}
		for i := 0; i < banks; i++ {
			state, open := ch.State(i)
			if mb := &m.banks[i]; state != mb.state || (state == Open && open != mb.row) {
				fail("bank %d is %v row %d, model %v row %d", i, state, open, mb.state, mb.row)
			}
			if got, want := ch.NextActivateAt(i), m.nextActivateAt(i); got != want {
				fail("NextActivateAt(%d) = %d, model %d", i, got, want)
			}
			if got, want := ch.NextPrechargeAt(i), m.nextPrechargeAt(i); got != want {
				fail("NextPrechargeAt(%d) = %d, model %d", i, got, want)
			}
			for _, r := range []uint32{open, row} {
				if ch.IsRowHit(i, r) != (state == Open && open == r) {
					fail("IsRowHit(%d, %d) = %v with the bank %v row %d", i, r, ch.IsRowHit(i, r), state, open)
				}
				for _, write := range []bool{false, true} {
					if got, want := ch.NextColumnAt(i, r, write), m.nextColumnAt(i, r, write); got != want {
						fail("NextColumnAt(%d, %d, write=%v) = %d, model %d", i, r, write, got, want)
					}
				}
			}
		}
		deadlines := []struct {
			name      string
			got, want uint64
		}{
			{"NextPrechargeAllBanksAt", ch.NextPrechargeAllBanksAt(), m.nextPrechargeAllBanksAt()},
			{"NextPIMPrechargeAllAt", ch.NextPIMPrechargeAllAt(), m.nextPIMPrechargeAllAt()},
			{"NextPIMActivateAllAt", ch.NextPIMActivateAllAt(), m.nextPIMActivateAllAt()},
			{"NextRefreshOKAt", ch.NextRefreshOKAt(), m.nextRefreshOKAt()},
			{"NextPIMOpAt(phase row)", ch.NextPIMOpAt(row), m.nextPIMOpAt(row)},
			{"NextPIMOpAt(other row)", ch.NextPIMOpAt(row + 1), m.nextPIMOpAt(row + 1)},
			{"RefreshAt", ch.RefreshAt(), m.nextRefreshAt},
		}
		for _, d := range deadlines {
			if d.got != d.want {
				fail("%s = %d, model %d", d.name, d.got, d.want)
			}
		}
		if ch.AnyBankOpen() != m.anyBankOpen() || ch.NeedsPIMPrecharge() != m.needsPIMPrecharge() {
			fail("AnyBankOpen %v NeedsPIMPrecharge %v, model %v %v",
				ch.AnyBankOpen(), ch.NeedsPIMPrecharge(), m.anyBankOpen(), m.needsPIMPrecharge())
		}
		for _, ahead := range []uint64{0, 1, 2, 5, 20} {
			if got, want := ch.BusyBanks(now+ahead), m.busyBanks(now+ahead); got != want {
				fail("BusyBanks(now+%d) = %d, model %d", ahead, got, want)
			}
		}
		ch.PublishActivity(now)
		m.count(now)
		if st.ActiveCycles != m.active || st.BankBusySum != m.busySum {
			fail("published active=%d busySum=%d, model %d %d", st.ActiveCycles, st.BankBusySum, m.active, m.busySum)
		}
		if a, p := ch.Commands(); a != m.activates || p != m.precharges {
			fail("%d activates %d precharges, model %d %d", a, p, m.activates, m.precharges)
		}
	}
	// issue moves the clock to the later of the next cycle and at, the
	// command's deadline, and reports false (issuing nothing) when the
	// deadline is never.
	issue := func(at uint64) bool {
		if at == never {
			return false
		}
		now = max(now+1, at)
		return true
	}
	for step := 0; step < steps; step++ {
		if phaseLeft == 0 {
			pimPhase, phaseLeft = !pimPhase, 1+rng.Intn(120)
			if rng.Intn(3) > 0 {
				row = uint32(rng.Intn(6)) // lockstep rows, shared with the MEM rows below
			}
		}
		phaseLeft--
		what := ""
		switch {
		case rng.Intn(150) == 0 || ch.RefreshDue(now) && rng.Intn(4) == 0:
			if ch.AnyBankOpen() {
				if issue(ch.NextPrechargeAllBanksAt()) {
					ch.RefreshPrechargeAll(now)
					m.prechargeAll(now, false)
					what = "refresh precharge-all"
					issued[7]++
				}
			} else if issue(ch.NextRefreshOKAt()) {
				ch.Refresh(now)
				m.refresh(now)
				what = "refresh"
				issued[8]++
			}
		case pimPhase:
			switch {
			case ch.PIMRowOpen(row):
				if issue(ch.NextPIMOpAt(row)) {
					ch.PIMOp(row, rng.Intn(2) == 0, now)
					m.pimOp(now)
					what = "PIM op"
					issued[6]++
				}
			case ch.NeedsPIMPrecharge():
				if issue(ch.NextPIMPrechargeAllAt()) {
					ch.PIMPrechargeAll(now)
					m.prechargeAll(now, true)
					what = "PIM precharge-all"
					issued[4]++
				}
			default:
				if issue(ch.NextPIMActivateAllAt()) {
					ch.PIMActivateAll(row, now)
					m.pimActivateAll(row, now)
					what = "PIM activate-all"
					issued[5]++
				}
			}
		default:
			bank := rng.Intn(banks)
			switch state, open := ch.State(bank); {
			case state == Closed:
				r := uint32(rng.Intn(6))
				if issue(ch.NextActivateAt(bank)) {
					ch.Activate(bank, r, now)
					m.activate(bank, r, now)
					what = "activate"
					issued[0]++
				}
			case rng.Intn(4) == 0:
				if issue(ch.NextPrechargeAt(bank)) {
					ch.Precharge(bank, now)
					m.precharge(bank, now)
					what = "precharge"
					issued[1]++
				}
			default:
				write, ap := rng.Intn(3) == 0, rng.Intn(3) == 0
				if issue(ch.NextColumnAt(bank, open, write)) {
					var got, want uint64
					if ap {
						got, want = ch.ColumnAP(bank, open, write, now), m.columnAP(bank, write, now)
						what = "column with auto-precharge"
						issued[3]++
					} else {
						got, want = ch.Column(bank, open, write, now), m.column(bank, write, now)
						what = "column"
						issued[2]++
					}
					if got != want {
						t.Fatalf("dual=%v seed %d step %d: %s done at %d, model %d", dual, seed, step, what, got, want)
					}
				}
			}
		}
		if what != "" {
			check(step, what)
		}
	}
	t.Logf("dual=%v seed %d: ACT/PRE/COL/COL-AP/PIM-PRE/PIM-ACT/PIM-op/REF-PRE/REF %v through cycle %d", dual, seed, issued, now)
	// The stream must reach every command, or the comparison proves little.
	for i, n := range issued {
		if n == 0 {
			t.Errorf("dual=%v seed %d: command kind %d never issued (%v)", dual, seed, i, issued)
		}
	}
}
