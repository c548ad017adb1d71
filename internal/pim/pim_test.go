package pim

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/request"
)

func newUnits() *Units { return NewUnits(config.Paper().PIM) }

// TestGeometry: the per-bank share of the register file is the whole
// entry range, up to the one-word bound config.Validate allows.
func TestGeometry(t *testing.T) {
	for _, rf := range []int{16, 128} {
		p := config.Paper().PIM
		p.RFSize = rf
		u, last := NewUnits(p), p.RFPerBank()-1
		if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: last}); err != nil {
			t.Errorf("RFSize %d: last entry %d rejected: %v", rf, last, err)
		}
		if err := u.Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: last}); err != nil {
			t.Errorf("RFSize %d: store of loaded entry %d rejected: %v", rf, last, err)
		}
		if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: last + 1}); err == nil {
			t.Errorf("RFSize %d: entry %d accepted past the per-bank share", rf, last+1)
		}
	}
}

func TestLoadComputeStoreSequence(t *testing.T) {
	u := newUnits()
	ops := []*request.PIMInfo{
		{Op: request.PIMLoad, RFEntry: 0, Block: 0},
		{Op: request.PIMCompute, RFEntry: 0, Block: 0},
		{Op: request.PIMStore, RFEntry: 0, Block: 0},
		{Op: request.PIMCompute, RFEntry: 1, Block: 0}, // compute defines its entry
		{Op: request.PIMStore, RFEntry: 1, Block: 0},
	}
	for i, op := range ops {
		if err := u.Execute(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestStoreOfUndefinedEntryFails(t *testing.T) {
	u := newUnits()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 2, Block: 0}); err != nil {
		t.Fatal(err)
	}
	if err := u.Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: 3, Block: 0}); err == nil {
		t.Error("store of undefined RF entry accepted")
	}
}

func TestRFEntryBounds(t *testing.T) {
	u := newUnits()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 8, Block: 0}); err == nil {
		t.Error("RF entry 8 accepted with 8 entries per bank")
	}
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: -1, Block: 0}); err == nil {
		t.Error("negative RF entry accepted")
	}
}

func TestBlockOrderingEnforced(t *testing.T) {
	u := newUnits()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 0, Block: 2}); err != nil {
		t.Fatal(err)
	}
	// Same block again is fine; going backwards is not.
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 1, Block: 2}); err != nil {
		t.Errorf("same block rejected: %v", err)
	}
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 0, Block: 1}); err == nil {
		t.Error("backwards block accepted (sequential ordering violated)")
	}
}

func TestUnknownOpKindRejected(t *testing.T) {
	u := newUnits()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMStore + 1, RFEntry: 0, Block: 0}); err == nil {
		t.Error("unknown op kind accepted")
	}
	// A rejected op leaves the state unchanged: the entry is still undefined.
	if err := u.Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: 0, Block: 0}); err == nil {
		t.Error("rejected op defined its RF entry")
	}
}

func TestNilPayloadRejected(t *testing.T) {
	u := newUnits()
	if err := u.Execute(nil); err == nil {
		t.Error("nil payload accepted")
	}
}

// TestRFStatePersistsAcrossModeSwitches documents the Sec. II-A invariant:
// nothing clears the register file except an explicit Reset, so state set
// before a (simulated) MEM phase is still there after it.
func TestRFStatePersistsAcrossModeSwitches(t *testing.T) {
	u := newUnits()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 5, Block: 0}); err != nil {
		t.Fatal(err)
	}
	// ... MEM phase happens here: no PIM calls ...
	if err := u.Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: 5, Block: 1}); err != nil {
		t.Errorf("store after mode switch failed: %v", err)
	}
}

func TestResetClearsEverything(t *testing.T) {
	u := newUnits()
	u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 2, Block: 7})
	u.Reset()
	if err := u.Execute(&request.PIMInfo{Op: request.PIMStore, RFEntry: 2, Block: 0}); err == nil {
		t.Error("RF entry survived Reset")
	}
	if err := u.Execute(&request.PIMInfo{Op: request.PIMLoad, RFEntry: 0, Block: 0}); err != nil {
		t.Errorf("block 0 rejected after Reset: %v", err)
	}
}

// TestLockstepProperty: the one validity word decides every op exactly as
// a per-bank register file would — lockstep execution applies each op to
// all 16 banks, so their rows never diverge and one row stands for all.
func TestLockstepProperty(t *testing.T) {
	cfg := config.Paper()
	u := NewUnits(cfg.PIM)
	ref := make([][]bool, cfg.Memory.Banks)
	for b := range ref {
		ref[b] = make([]bool, cfg.PIM.RFPerBank())
	}
	lastBlock := -1
	f := func(entry, kind, step uint8) bool {
		info := &request.PIMInfo{
			Op:      request.PIMOpKind(kind % 4), // 3 is not a defined kind
			RFEntry: int(entry%10) - 1,           // -1 and 8 are out of range
			Block:   lastBlock + int(step%4) - 1, // sometimes backwards
		}
		// The reference: every bank's row, checked and updated per bank.
		ok := info.RFEntry >= 0 && info.RFEntry < len(ref[0]) && info.Block >= lastBlock && info.Op <= request.PIMStore
		for b := range ref {
			if ok && info.Op == request.PIMStore && !ref[b][info.RFEntry] {
				ok = false
			}
		}
		if ok {
			for b := range ref {
				if info.Op != request.PIMStore {
					ref[b][info.RFEntry] = true
				}
			}
			lastBlock = info.Block
		}
		return (u.Execute(info) == nil) == ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
