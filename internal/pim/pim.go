// Package pim models the functional side of the bank-level PIM units of
// Fig. 2: one functional unit (FU) per pair of banks, each FU holding a
// DRAM-word-wide SIMD ALU and a register file whose entries are split
// between the two banks it serves (8 of 16 per bank in Table I).
//
// The timing of lockstep PIM execution lives in package dram (broadcast
// precharge/activate and the all-bank op). This package enforces the
// *semantic* invariants the paper relies on for PIM correctness:
//
//   - register-file state persists across MEM/PIM mode switches
//     (Sec. II-A: "The PIM register file holds state across MEM/PIM
//     switch boundaries");
//   - blocks execute sequentially (Sec. II-B: "blocks must be executed
//     sequentially for correctness due to their dependencies");
//   - compute and store operations only consume register-file entries
//     that an earlier load or compute produced.
package pim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/request"
)

// Units is the functional state of all PIM FUs of one channel. Every bank
// executes the same op in lockstep (Sec. II-B), so every bank's share of
// the register file holds the same defined entries, and one bit per entry
// states them for all banks at once (config.Validate bounds the per-bank
// share to one word).
type Units struct {
	rfPerBank int

	// valid has bit e set iff RF entry e holds defined data.
	valid uint64

	// lastBlock is the highest block index executed so far; -1 before
	// the first op. Blocks may repeat ops (same index) but must never
	// go backwards.
	lastBlock int
}

// NewUnits builds the FUs for one channel.
func NewUnits(p config.PIM) *Units {
	return &Units{rfPerBank: p.RFPerBank(), lastBlock: -1}
}

// Execute applies one lockstep PIM op to every bank and validates the
// correctness invariants. It returns a descriptive error (and leaves the
// state unchanged) if the op is malformed; the memory controller treats
// such an error as a programming bug and surfaces it.
func (u *Units) Execute(info *request.PIMInfo) error {
	if info == nil {
		return fmt.Errorf("pim: op without PIM payload")
	}
	if info.RFEntry < 0 || info.RFEntry >= u.rfPerBank {
		return fmt.Errorf("pim: RF entry %d out of range [0,%d)", info.RFEntry, u.rfPerBank)
	}
	if info.Block < u.lastBlock {
		return fmt.Errorf("pim: block %d executed after block %d (sequential block ordering violated)", info.Block, u.lastBlock)
	}
	bit := uint64(1) << info.RFEntry
	switch info.Op {
	case request.PIMLoad, request.PIMCompute:
		// A compute both reads DRAM and combines with the RF entry;
		// kernels may accumulate into a fresh entry (e.g. zero-init
		// MAC), so reading an invalid entry is legal only for the
		// entry it also defines. The conservative check used here
		// mirrors Fig. 3's pattern: compute defines its entry.
		u.valid |= bit
	case request.PIMStore:
		if u.valid&bit == 0 {
			return fmt.Errorf("pim: store of undefined RF entry %d", info.RFEntry)
		}
	default:
		return fmt.Errorf("pim: unknown op kind %v", info.Op)
	}
	u.lastBlock = info.Block
	return nil
}

// Reset clears all register-file state and the block cursor, as a new
// kernel launch would. Nothing else clears the register file, so its state
// survives MEM/PIM mode switches.
func (u *Units) Reset() { u.valid, u.lastBlock = 0, -1 }
