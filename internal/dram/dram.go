// Package dram implements a cycle-level HBM channel timing model with the
// Table I parameters: per-bank state machines with row buffers, bank-group
// aware column-to-column spacing (tCCDs/tCCDl), activate windows (tRRD),
// core timing (tRCD/tRP/tRAS), read/write turnaround (tCL/tWL/tWR/tRTP),
// and a shared data bus sized by the bus width and burst length.
//
// The package also models the all-bank lockstep command sequences used in
// PIM mode: broadcast precharge, broadcast activate, and the lockstep PIM
// operation that occupies every bank of the channel (Sec. II-A). Broadcast
// activation intentionally bypasses tRRD — PIM mode exists precisely to
// provide the command bandwidth that per-bank interfaces lack.
package dram

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/stats"
)

// BankState enumerates the row-buffer state of a bank.
type BankState uint8

const (
	// Closed means no row is latched; an activate is required.
	Closed BankState = iota
	// Open means a row is latched in the row buffer.
	Open
)

// String returns "closed" or "open".
func (s BankState) String() string {
	if s == Open {
		return "open"
	}
	return "closed"
}

// bank is the per-bank timing state.
type bank struct {
	state   BankState
	openRow uint32

	// epoch counts row-buffer transitions (open, close, row change) of
	// this bank. The controller keeps the bank's FR-FCFS candidate keyed by
	// it: a kept "oldest row hit" stays valid exactly while the epoch is
	// unchanged.
	epoch uint64

	// openedByPIM marks that the current row-buffer state (open row or
	// closure) was last changed by a PIM-mode broadcast command. A
	// subsequent MEM row miss on such a bank is an "additional MEM
	// conflict" attributable to mode switching (Fig. 10b).
	openedByPIM bool

	// group is the bank's bank group, fixed at construction: column
	// commands within one group are spaced by tCCDl, across groups by
	// tCCDs.
	group int32

	actReadyAt uint64 // earliest cycle an ACT may issue (tRP after PRE)
	colReadyAt uint64 // earliest cycle a column command may issue (tRCD after ACT)
	preReadyAt uint64 // earliest cycle a PRE may issue (tRAS/tRTP/tWR)
	busyUntil  uint64 // bank occupied below this cycle; only occupy moves it
}

// Channel is one HBM channel: a set of banks behind one command bus and
// one data bus, plus the PIM functional units' lockstep timing.
type Channel struct {
	cfg   config.Memory
	pim   config.PIM
	banks []bank

	lastActAt    uint64    // channel-wide, for tRRD (MEM mode only)
	actWindow    [4]uint64 // rolling ACT timestamps for tFAW (oldest overwritten)
	actWindowIdx int
	lastColAt    uint64 // channel-wide last column command cycle
	lastColGroup int32  // bank group of that command
	haveLastCol  bool
	busBusyUntil uint64 // data bus reserved through this cycle (exclusive)

	lastWriteDataEnd uint64 // for tWTR (write-to-read turnaround)
	lastReadCmdAt    uint64 // for tRTW (read-to-write turnaround)
	haveRead         bool

	pimBusyUntil uint64 // lockstep op in progress through this cycle

	// rowEpoch counts the row-buffer transitions of all banks: it moves
	// with every bank epoch (rowChanged). lockstep keeps NextPIMOpAt's bank
	// walk for one row — the latest colReadyAt of the banks, or never when
	// some bank does not hold the row — valid while rowEpoch equals its
	// epoch: a bank's state, open row and colReadyAt change only in
	// commands that move its epoch.
	rowEpoch uint64
	lockstep lockstepWalk

	// Dual-row-buffer state (config.PIM.DualRowBuffer): PIM's own
	// channel-level row buffer, so broadcast commands leave the banks'
	// MEM row buffers intact. Lockstep execution means one row index
	// covers every bank.
	dualPIMOpen       bool
	dualPIMRow        uint32
	dualPIMColReady   uint64
	dualPIMPreReady   uint64
	dualPIMActReadyAt uint64

	nextRefreshAt uint64 // next REFab deadline (0 = refresh disabled)

	// Activity accounting, credited by occupy at the command that extends
	// a busy window: busySum is the bank-cycles of every window through
	// its bank's busyUntil, activeSum the cycles of their union through
	// busyMax, the latest busyUntil of any bank. PublishActivity subtracts
	// the part still in the future.
	busySum   uint64
	activeSum uint64
	busyMax   uint64

	st *stats.Channel

	// shadow backs the simdebug activity assertion; untouched in release
	// builds (see invariants.go).
	shadow activityShadow

	// activates and precharges count the row commands issued; a
	// broadcast counts once. Refreshes are stats.Channel.Refreshes.
	activates, precharges uint64

	// Fault injector handle; nil (the default) means no injection and a
	// bit-identical command stream to a fault-free run.
	flt   *faults.Injector
	fltCh int
}

// lockstepWalk is one kept result of the all-bank walk (see rowEpoch).
type lockstepWalk struct {
	epoch uint64
	row   uint32
	ready uint64
}

// NewChannel builds a channel with all banks closed at cycle 0. The stats
// pointer may be nil when measurements are not needed.
func NewChannel(mem config.Memory, pim config.PIM, st *stats.Channel) *Channel {
	c := &Channel{
		cfg:   mem,
		pim:   pim,
		banks: make([]bank, mem.Banks),
		st:    st,
		// No walk kept yet: rowEpoch starts at 0 and never reaches never.
		lockstep: lockstepWalk{epoch: never},
	}
	for i := range c.banks {
		c.banks[i].group = int32(i / (mem.Banks / mem.BankGroups))
	}
	if mem.Timing.TREFI > 0 {
		c.nextRefreshAt = uint64(mem.Timing.TREFI)
	}
	return c
}

// Commands returns how many activates and precharges the channel has
// issued, a broadcast counting once.
func (c *Channel) Commands() (activates, precharges uint64) {
	return c.activates, c.precharges
}

// SetFaults attaches the run's fault injector (nil disables injection)
// and records which fault channel this DRAM channel draws from.
func (c *Channel) SetFaults(inj *faults.Injector, channelID int) {
	c.flt = inj
	c.fltCh = channelID
}

// burstCycles returns the data-bus occupancy of one access in DRAM cycles
// (BL/2 for a double-data-rate bus, minimum 1).
func (c *Channel) burstCycles() uint64 {
	b := uint64(c.cfg.BurstLength / 2)
	if b == 0 {
		b = 1
	}
	return b
}

// occupy extends bank b's busy window to until on behalf of a command
// issued at cycle now, and credits the activity statistics with the cycles
// the extension adds. A window never shrinks and a command at now occupies
// its banks from now+1 (cycle now was accounted on the state the command
// found), so the bank gains the cycles [max(busyUntil, now+1), until) and
// the channel's union of windows gains [max(busyMax, now+1), until) — both
// O(1), where walking the banks every cycle to re-count unchanged windows
// was O(banks) per cycle.
func (c *Channel) occupy(b *bank, until, now uint64) {
	if until <= b.busyUntil {
		return
	}
	if invariant.Enabled {
		c.shadowSync(now) // the reference loop sees cycle now before the window moves
	}
	if from := max(b.busyUntil, now+1); until > from {
		c.busySum += until - from
	}
	b.busyUntil = until
	if until > c.busyMax {
		if from := max(c.busyMax, now+1); until > from {
			c.activeSum += until - from
		}
		c.busyMax = until
	}
}

// PublishActivity writes the activity statistics of DRAM cycles 1..through
// — ActiveCycles, the cycles with any bank busy, and BankBusySum, the busy
// banks summed over them (the BLP figure's two terms) — into the channel's
// stats: the sums occupy credited, less each window's overshoot past
// through. through must not precede the latest command's cycle (windows
// before it may have gaps the subtraction cannot see); the controller
// publishes at its accounting clock, which never does. The sim calls this
// where it reads statistics, not every cycle.
func (c *Channel) PublishActivity(through uint64) {
	if c.st == nil {
		return
	}
	active, busySum := c.activeSum, c.busySum
	if c.busyMax > through+1 {
		active -= c.busyMax - (through + 1)
	}
	for i := range c.banks {
		if bu := c.banks[i].busyUntil; bu > through+1 {
			busySum -= bu - (through + 1)
		}
	}
	if invariant.Enabled {
		c.checkActivity(through, active, busySum)
	}
	c.st.ActiveCycles, c.st.BankBusySum = active, busySum
}

// --- command deadlines -----------------------------------------------------
//
// Each timing rule of the channel is written once, in the Next*At function
// of the command it constrains: the earliest cycle the command is legal, or
// never when the row-buffer state forbids it until some other command has
// issued. A deadline is the maximum of "not before" thresholds, and the
// thresholds only move when a command issues — never with the passage of
// time — so a deadline stays exact until the next command and may lie in
// the past (the command is legal now). Every Can*(…, now) predicate is the
// single comparison deadline <= now, and the controller's NextEvent takes
// minima over the same deadlines, so "legal now" and "legal from cycle t"
// cannot disagree.

const never = ^uint64(0)

// NextActivateAt returns the earliest cycle an ACT to bankIdx may issue,
// or never when the bank is not closed (a precharge must happen first):
// tRP after the bank's precharge, tRRD after the channel's last activate
// (MEM mode only) and, when configured, tFAW after the fourth-previous one.
func (c *Channel) NextActivateAt(bankIdx int) uint64 {
	b := &c.banks[bankIdx]
	if b.state != Closed {
		return never
	}
	at := b.actReadyAt
	if c.lastActAt != 0 {
		if t := c.lastActAt + uint64(c.cfg.Timing.TRRD); t > at {
			at = t
		}
	}
	if f := c.cfg.Timing.TFAW; f > 0 {
		if oldest := c.actWindow[c.actWindowIdx]; oldest != 0 {
			if t := oldest + uint64(f); t > at {
				at = t
			}
		}
	}
	return at
}

// NextPrechargeAt returns the earliest cycle a PRE to bankIdx may issue
// (the bank's tRAS/tRTP/tWR window), or never when no row is open.
func (c *Channel) NextPrechargeAt(bankIdx int) uint64 {
	b := &c.banks[bankIdx]
	if b.state != Open {
		return never
	}
	return b.preReadyAt
}

// NextColumnAt returns the earliest cycle a read/write column command for
// row on bankIdx may issue, or never when the row is not open (an activate
// must happen first): tRCD after the activate, tCCDs/tCCDl after the
// channel's last column command, the supplemental write-to-read (tWTR) and
// read-to-write (tRTW) turnarounds when configured, and a free data bus at
// the command's tCL/tWL data slot.
func (c *Channel) NextColumnAt(bankIdx int, row uint32, write bool) uint64 {
	b := &c.banks[bankIdx]
	if b.state != Open || b.openRow != row {
		return never
	}
	at := b.colReadyAt
	if c.haveLastCol {
		gap := uint64(c.cfg.Timing.TCCDS)
		if b.group == c.lastColGroup {
			gap = uint64(c.cfg.Timing.TCCDL)
		}
		if t := c.lastColAt + gap; t > at {
			at = t
		}
	}
	t := c.cfg.Timing
	if !write && t.TWTR > 0 && c.lastWriteDataEnd > 0 {
		if w := c.lastWriteDataEnd + uint64(t.TWTR); w > at {
			at = w
		}
	}
	if write && t.TRTW > 0 && c.haveRead {
		if w := c.lastReadCmdAt + uint64(t.TRTW); w > at {
			at = w
		}
	}
	// The data slot starts dataDelay after the command and must not
	// overlap the previous burst.
	if d := c.dataDelay(write); c.busBusyUntil > d {
		if w := c.busBusyUntil - d; w > at {
			at = w
		}
	}
	return at
}

// NextPrechargeAllBanksAt returns the earliest cycle a broadcast precharge
// of the banks may issue: every open bank must have satisfied its
// tRAS/tRTP/tWR window. The refresh flow uses it directly (it always
// targets the banks).
func (c *Channel) NextPrechargeAllBanksAt() uint64 {
	var at uint64
	for i := range c.banks {
		b := &c.banks[i]
		if b.state == Open && b.preReadyAt > at {
			at = b.preReadyAt
		}
	}
	return at
}

// NextPIMPrechargeAllAt returns the earliest cycle a PIM broadcast
// precharge may issue: the banks' windows, or the dedicated PIM buffer's
// own window under the dual-row-buffer extension.
func (c *Channel) NextPIMPrechargeAllAt() uint64 {
	if c.pim.DualRowBuffer {
		if !c.dualPIMOpen {
			return 0
		}
		return c.dualPIMPreReady
	}
	return c.NextPrechargeAllBanksAt()
}

// NextPIMActivateAllAt returns the earliest cycle a broadcast activate may
// issue, or never while a precharge is still required: every bank closed
// and past its tRP window (or, under the dual-row-buffer extension, the
// dedicated PIM buffer closed and recovered — the banks' MEM rows are
// untouched). Broadcast activation is exempt from tRRD.
func (c *Channel) NextPIMActivateAllAt() uint64 {
	if c.pim.DualRowBuffer {
		if c.dualPIMOpen {
			return never
		}
		return c.dualPIMActReadyAt
	}
	return c.NextRefreshOKAt() // the same condition on the banks as REFab
}

// NextPIMOpAt returns the earliest cycle a lockstep PIM operation on row
// may issue, or never when the lockstep row is not open (exactly when
// PIMRowOpen(row) is false): all banks open at row (or the PIM buffer,
// under the dual-buffer extension), past tRCD, and no previous lockstep op
// still in flight. The all-bank walk runs once per row and row epoch.
func (c *Channel) NextPIMOpAt(row uint32) uint64 {
	var ready uint64
	switch {
	case !c.pim.DualRowBuffer:
		ready = c.lockstepReady(row)
	case c.dualPIMOpen && c.dualPIMRow == row:
		ready = c.dualPIMColReady
	default:
		return never
	}
	if ready == never {
		return never
	}
	return max(ready, c.pimBusyUntil)
}

// lockstepReady returns the bank walk for row (see rowEpoch), walking the
// banks again only when the row or the row epoch moved since the last one.
func (c *Channel) lockstepReady(row uint32) uint64 {
	if w := c.lockstep; w.epoch == c.rowEpoch && w.row == row {
		if invariant.Enabled {
			c.checkLockstep(w) //pimlint:coldpath — simdebug builds only
		}
		return w.ready
	}
	ready := c.walkLockstep(row)
	c.lockstep = lockstepWalk{epoch: c.rowEpoch, row: row, ready: ready}
	return ready
}

// walkLockstep is the bank walk itself: the latest colReadyAt of the banks
// if every one holds row open, else never.
func (c *Channel) walkLockstep(row uint32) uint64 {
	var ready uint64
	for i := range c.banks {
		b := &c.banks[i]
		if b.state != Open || b.openRow != row {
			return never
		}
		ready = max(ready, b.colReadyAt)
	}
	return ready
}

// NextRefreshOKAt returns the earliest cycle the REFab command may issue,
// or never while a bank is still open: every bank closed and past its
// precharge recovery.
func (c *Channel) NextRefreshOKAt() uint64 {
	var at uint64
	for i := range c.banks {
		b := &c.banks[i]
		if b.state != Closed {
			return never
		}
		if b.actReadyAt > at {
			at = b.actReadyAt
		}
	}
	return at
}

// RefreshAt returns the next REFab deadline (0 when refresh is disabled).
func (c *Channel) RefreshAt() uint64 { return c.nextRefreshAt }

// State returns the row-buffer state of a bank: whether a row is open and
// which.
func (c *Channel) State(bankIdx int) (state BankState, row uint32) {
	b := &c.banks[bankIdx]
	return b.state, b.openRow
}

// IsRowHit reports whether a column access to (bank,row) would hit the open
// row buffer right now.
func (c *Channel) IsRowHit(bankIdx int, row uint32) bool {
	b := &c.banks[bankIdx]
	return b.state == Open && b.openRow == row
}

// RowEpoch returns the bank's row-buffer transition counter. IsRowHit
// answers for a fixed (bank,row) cannot change between two calls that
// observe the same epoch.
func (c *Channel) RowEpoch(bankIdx int) uint64 { return c.banks[bankIdx].epoch }

// rowChanged records a row-buffer transition of b: its epoch and the
// channel's move together.
func (c *Channel) rowChanged(b *bank) {
	b.epoch++
	c.rowEpoch++
}

// --- MEM-mode commands -------------------------------------------------

// CanActivate reports whether an ACT to bankIdx may issue at cycle now.
func (c *Channel) CanActivate(bankIdx int, now uint64) bool {
	return c.NextActivateAt(bankIdx) <= now
}

// Activate opens row in bankIdx. The caller must have checked CanActivate.
func (c *Channel) Activate(bankIdx int, row uint32, now uint64) {
	b := &c.banks[bankIdx]
	if !c.CanActivate(bankIdx, now) {
		panic(fmt.Sprintf("dram: illegal ACT bank %d at %d", bankIdx, now)) //pimlint:coldpath
	}
	t := c.cfg.Timing
	b.state = Open
	b.openRow = row
	c.rowChanged(b)
	b.openedByPIM = false
	b.colReadyAt = now + uint64(t.TRCD)
	b.preReadyAt = now + uint64(t.TRAS)
	c.occupy(b, b.colReadyAt, now)
	c.lastActAt = now
	if t.TFAW > 0 {
		c.actWindow[c.actWindowIdx] = now
		c.actWindowIdx = (c.actWindowIdx + 1) % len(c.actWindow)
	}
	c.activates++
}

// CanPrecharge reports whether a PRE to bankIdx may issue at cycle now.
func (c *Channel) CanPrecharge(bankIdx int, now uint64) bool {
	return c.NextPrechargeAt(bankIdx) <= now
}

// Precharge closes the open row of bankIdx.
func (c *Channel) Precharge(bankIdx int, now uint64) {
	b := &c.banks[bankIdx]
	if !c.CanPrecharge(bankIdx, now) {
		panic(fmt.Sprintf("dram: illegal PRE bank %d at %d", bankIdx, now)) //pimlint:coldpath
	}
	b.state = Closed
	c.rowChanged(b)
	b.openedByPIM = false
	b.actReadyAt = now + uint64(c.cfg.Timing.TRP)
	c.occupy(b, b.actReadyAt, now)
	c.precharges++
}

// CanColumn reports whether a read/write column command for row on bankIdx
// may issue at cycle now.
func (c *Channel) CanColumn(bankIdx int, row uint32, write bool, now uint64) bool {
	return c.NextColumnAt(bankIdx, row, write) <= now
}

func (c *Channel) dataDelay(write bool) uint64 {
	if write {
		return uint64(c.cfg.Timing.TWL)
	}
	return uint64(c.cfg.Timing.TCL)
}

// Column issues a read or write to the open row of bankIdx and returns the
// DRAM cycle at which the request completes (data returned for reads;
// write-recovery finished for writes, since a bank and the mode-switch
// drain are both held until tWR elapses).
func (c *Channel) Column(bankIdx int, row uint32, write bool, now uint64) (doneAt uint64) {
	if !c.CanColumn(bankIdx, row, write, now) {
		panic(fmt.Sprintf("dram: illegal column bank %d row %d at %d", bankIdx, row, now)) //pimlint:coldpath
	}
	t := c.cfg.Timing
	b := &c.banks[bankIdx]
	burst := c.burstCycles()
	dataStart := now + c.dataDelay(write)
	dataEnd := dataStart + burst
	c.busBusyUntil = dataEnd
	c.lastColAt = now
	c.lastColGroup = b.group
	c.haveLastCol = true

	if write {
		doneAt = dataEnd + uint64(t.TWR)
		if b.preReadyAt < doneAt {
			b.preReadyAt = doneAt
		}
		c.lastWriteDataEnd = dataEnd
	} else {
		doneAt = dataEnd
		if rtp := now + uint64(t.TRTP); b.preReadyAt < rtp {
			b.preReadyAt = rtp
		}
		c.lastReadCmdAt = now
		c.haveRead = true
	}
	c.occupy(b, doneAt, now)
	if c.st != nil {
		if write {
			c.st.MemWrites++
		} else {
			c.st.MemReads++
		}
	}
	b.openedByPIM = false
	if c.flt != nil {
		// A transient ECC correction / read retry extends this command:
		// the data (and for writes the recovery window) lands late, and
		// the bank stays busy through the retry.
		if extra := c.flt.CASDelay(c.fltCh); extra > 0 {
			doneAt += extra
			c.occupy(b, doneAt, now)
			if write && b.preReadyAt < doneAt {
				b.preReadyAt = doneAt
			}
		}
	}
	return doneAt
}

// ColumnAP issues a column access with auto-precharge (the closed-page
// extension): the row closes as soon as its recovery window (tRTP for
// reads, write recovery for writes) elapses, and the bank may activate
// again tRP later. Completion semantics match Column.
func (c *Channel) ColumnAP(bankIdx int, row uint32, write bool, now uint64) (doneAt uint64) {
	doneAt = c.Column(bankIdx, row, write, now)
	b := &c.banks[bankIdx]
	// preReadyAt was just advanced to the recovery point by Column;
	// the auto-precharge fires there.
	b.state = Closed
	c.rowChanged(b)
	b.actReadyAt = b.preReadyAt + uint64(c.cfg.Timing.TRP)
	c.occupy(b, b.actReadyAt, now)
	return doneAt
}

// NoteRowHit records that a MEM request was classified as a row-buffer hit
// when the scheduler first serviced it. The scheduler calls exactly one of
// NoteRowHit/NoteRowMiss per MEM request.
func (c *Channel) NoteRowHit() {
	if c.st != nil {
		c.st.RowHits++
	}
}

// NoteRowMiss records that a MEM request experienced a row miss on bankIdx
// (the scheduler observed a conflict or a closed row and will
// precharge/activate). It classifies the miss as a post-switch conflict
// when the bank's row-buffer state was last changed in PIM mode
// (Fig. 10b's "additional MEM conflicts"). The scheduler must call this
// exactly once per MEM request that misses.
func (c *Channel) NoteRowMiss(bankIdx int) {
	if c.st == nil {
		return
	}
	c.st.RowMisses++
	if c.banks[bankIdx].openedByPIM {
		c.st.PostSwitchConflicts++
	}
}

// --- PIM-mode broadcast commands ----------------------------------------

// PIMRowOpen reports whether the lockstep row is open for PIM execution:
// every bank holds row (shared buffer), or the dedicated PIM buffer holds
// it (dual-row-buffer extension).
func (c *Channel) PIMRowOpen(row uint32) bool { return c.NextPIMOpAt(row) != never }

// AnyBankOpen reports whether at least one bank has an open row.
func (c *Channel) AnyBankOpen() bool {
	for i := range c.banks {
		if c.banks[i].state == Open {
			return true
		}
	}
	return false
}

// NeedsPIMPrecharge reports whether a broadcast precharge must happen
// before a PIM activate: the PIM-visible row buffer(s) hold some row.
func (c *Channel) NeedsPIMPrecharge() bool {
	if c.pim.DualRowBuffer {
		return c.dualPIMOpen
	}
	return c.AnyBankOpen()
}

// CanPrechargeAllBanks reports whether a broadcast precharge of the banks
// may issue at cycle now.
func (c *Channel) CanPrechargeAllBanks(now uint64) bool {
	return c.NextPrechargeAllBanksAt() <= now
}

// CanPIMPrechargeAll reports whether a PIM broadcast precharge may issue at
// cycle now.
func (c *Channel) CanPIMPrechargeAll(now uint64) bool {
	return c.NextPIMPrechargeAllAt() <= now
}

// PIMPrechargeAll closes every bank in lockstep, marking the disturbance
// as PIM-mode activity for the Fig. 10b conflict attribution.
func (c *Channel) PIMPrechargeAll(now uint64) {
	c.prechargeAll(now, true)
}

// RefreshPrechargeAll closes every bank ahead of an all-bank refresh; the
// disturbance is not attributed to PIM.
func (c *Channel) RefreshPrechargeAll(now uint64) {
	c.prechargeAll(now, false)
}

func (c *Channel) prechargeAll(now uint64, byPIM bool) {
	c.precharges++
	if byPIM && c.pim.DualRowBuffer {
		if !c.CanPIMPrechargeAll(now) {
			panic(fmt.Sprintf("dram: illegal PIM-buffer PRE at %d", now)) //pimlint:coldpath
		}
		c.dualPIMOpen = false
		c.dualPIMActReadyAt = now + uint64(c.cfg.Timing.TRP)
		return
	}
	if !c.CanPrechargeAllBanks(now) {
		panic(fmt.Sprintf("dram: illegal broadcast PRE at %d", now)) //pimlint:coldpath
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.state == Open {
			b.state = Closed
			c.rowChanged(b)
			b.actReadyAt = now + uint64(c.cfg.Timing.TRP)
			c.occupy(b, b.actReadyAt, now)
		}
		if byPIM {
			b.openedByPIM = true
		}
	}
}

// --- refresh (supplemental; disabled when TREFI == 0) ---------------------

// RefreshDue reports whether the channel has crossed its all-bank refresh
// deadline.
func (c *Channel) RefreshDue(now uint64) bool {
	return c.nextRefreshAt > 0 && now >= c.nextRefreshAt
}

// CanRefresh reports whether the REFab command may issue at cycle now.
func (c *Channel) CanRefresh(now uint64) bool {
	return c.NextRefreshOKAt() <= now
}

// Refresh issues an all-bank refresh: the channel is unavailable for tRFC
// and the next deadline advances by tREFI.
func (c *Channel) Refresh(now uint64) {
	if !c.CanRefresh(now) {
		panic(fmt.Sprintf("dram: illegal REFab at %d", now)) //pimlint:coldpath
	}
	t := c.cfg.Timing
	until := now + uint64(t.TRFC)
	for i := range c.banks {
		b := &c.banks[i]
		b.actReadyAt = until
		c.occupy(b, until, now)
	}
	c.nextRefreshAt += uint64(t.TREFI)
	if c.st != nil {
		c.st.Refreshes++
	}
}

// CanPIMActivateAll reports whether a broadcast activate may issue at cycle
// now.
func (c *Channel) CanPIMActivateAll(now uint64) bool {
	return c.NextPIMActivateAllAt() <= now
}

// PIMActivateAll opens row in every bank in lockstep. Broadcast activation
// is exempt from tRRD (dedicated PIM-mode command bandwidth).
func (c *Channel) PIMActivateAll(row uint32, now uint64) {
	if !c.CanPIMActivateAll(now) {
		panic(fmt.Sprintf("dram: illegal broadcast ACT at %d", now)) //pimlint:coldpath
	}
	t := c.cfg.Timing
	c.activates++
	if c.pim.DualRowBuffer {
		c.dualPIMOpen = true
		c.dualPIMRow = row
		c.dualPIMColReady = now + uint64(t.TRCD)
		c.dualPIMPreReady = now + uint64(t.TRAS)
		return
	}
	for i := range c.banks {
		b := &c.banks[i]
		b.state = Open
		b.openRow = row
		c.rowChanged(b)
		b.openedByPIM = true
		b.colReadyAt = now + uint64(t.TRCD)
		b.preReadyAt = now + uint64(t.TRAS)
		c.occupy(b, b.colReadyAt, now)
	}
}

// CanPIMOp reports whether a lockstep PIM operation on row may issue at
// cycle now.
func (c *Channel) CanPIMOp(row uint32, now uint64) bool {
	return c.NextPIMOpAt(row) <= now
}

// PIMOp executes one lockstep PIM operation on row across all banks,
// returning its completion cycle. hit records whether the op found the row
// already open across all banks when its scheduling began (for the PIM
// row-locality statistics).
func (c *Channel) PIMOp(row uint32, hit bool, now uint64) (doneAt uint64) {
	if !c.CanPIMOp(row, now) {
		panic(fmt.Sprintf("dram: illegal PIM op row %d at %d", row, now)) //pimlint:coldpath
	}
	doneAt = now + uint64(c.pim.OpCycles)
	c.pimBusyUntil = doneAt
	// In steady lockstep every busy window has ended by now+1 (an op cannot
	// issue before the previous one's pimBusyUntil), so each bank and their
	// union gain the same cycles [now+1, doneAt): occupy's per-bank
	// credits, taken at once, leave only the per-bank stores.
	steady := c.busyMax <= now+1 && doneAt > now
	if steady {
		if invariant.Enabled {
			c.shadowSync(now) // as occupy: the reference loop sees cycle now first
		}
		d := doneAt - now - 1
		c.busySum += uint64(len(c.banks)) * d
		c.activeSum += d
		c.busyMax = doneAt
	}
	rtp := now + uint64(c.cfg.Timing.TRTP)
	for i := range c.banks {
		b := &c.banks[i]
		// Execution occupies the bank arrays regardless of which row
		// buffer holds the row (MEM/PIM exclusivity is preserved even
		// under the dual-row-buffer extension).
		if steady {
			b.busyUntil = doneAt
		} else {
			c.occupy(b, doneAt, now)
		}
		if !c.pim.DualRowBuffer && b.preReadyAt < rtp {
			b.preReadyAt = rtp
		}
	}
	if c.pim.DualRowBuffer && c.dualPIMPreReady < rtp {
		c.dualPIMPreReady = rtp
	}
	if c.st != nil {
		c.st.PIMOps++
		if hit {
			c.st.PIMRowHits++
		} else {
			c.st.PIMRowMisses++
		}
	}
	return doneAt
}

// BusyBanks returns how many banks are occupied at cycle now (used by
// tests; the statistic over cycles is PublishActivity's).
func (c *Channel) BusyBanks(now uint64) int {
	n := 0
	for i := range c.banks {
		if c.banks[i].busyUntil > now {
			n++
		}
	}
	return n
}
