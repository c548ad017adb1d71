package config_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/request"
)

// TestPerVCBuffer pins Table I's NoC buffer split: the whole buffer under
// VC1, half per VC under VC2, so total buffering is held equal.
func TestPerVCBuffer(t *testing.T) {
	buf := config.Paper().NoC.BufferSize
	if got := noc.NewVCQueue(config.VC1, buf).SpaceFor(request.MemRead); got != 512 {
		t.Errorf("VC1 per-VC buffer = %d, want 512", got)
	}
	q := noc.NewVCQueue(config.VC2, buf)
	for _, k := range []request.Kind{request.MemRead, request.PIMOp} {
		if got := q.SpaceFor(k); got != 256 {
			t.Errorf("VC2 per-VC buffer for %v = %d, want 256 (total held equal)", k, got)
		}
	}
}
