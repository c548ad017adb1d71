package config

import "testing"

// TestPaperMatchesTableI pins every Table I parameter so accidental edits
// to the paper configuration fail loudly.
func TestPaperMatchesTableI(t *testing.T) {
	c := Paper()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"SMs", c.GPU.NumSMs, 80},
		{"core clock MHz", c.GPU.CoreClockMHz, 1132},
		{"PIM SMs", c.GPU.PIMSMs, 8},
		{"channels", c.Memory.Channels, 32},
		{"banks", c.Memory.Banks, 16},
		{"DRAM clock MHz", c.Memory.ClockMHz, 850},
		{"bus width B", c.Memory.BusWidthB, 16},
		{"burst length", c.Memory.BurstLength, 2},
		{"MEM-Q size", c.Memory.MemQSize, 64},
		{"PIM-Q size", c.Memory.PIMQSize, 64},
		{"NoC buffer", c.NoC.BufferSize, 512},
		{"PIM FUs/channel", c.PIM.FUsPerChannel, 8},
		{"PIM RF size", c.PIM.RFSize, 16},
		{"L2 bytes", c.Cache.TotalBytes, 6 << 20},
		{"tCCDs", c.Memory.Timing.TCCDS, 1},
		{"tCCDl", c.Memory.Timing.TCCDL, 2},
		{"tRRD", c.Memory.Timing.TRRD, 3},
		{"tRCD", c.Memory.Timing.TRCD, 12},
		{"tRP", c.Memory.Timing.TRP, 12},
		{"tRAS", c.Memory.Timing.TRAS, 28},
		{"tCL", c.Memory.Timing.TCL, 12},
		{"tWL", c.Memory.Timing.TWL, 2},
		{"tWR", c.Memory.Timing.TWR, 10},
		{"tRTP", c.Memory.Timing.TRTP, 3},
		{"FR-FCFS-Cap CAP", c.Sched.FRFCFSCap, 32},
		{"BLISS threshold", c.Sched.BlissThreshold, 4},
		{"G&I high", c.Sched.GIHighWatermark, 56},
		{"G&I low", c.Sched.GILowWatermark, 32},
		{"F3FS MEM cap", c.Sched.F3FSMemCap, 256},
		{"F3FS PIM cap", c.Sched.F3FSPIMCap, 256},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if got := c.Memory.AccessBytes(); got != 32 {
		t.Errorf("access bytes = %d, want 32", got)
	}
	if got := c.PIM.RFPerBank(); got != 8 {
		t.Errorf("RF per bank = %d, want 8 (8 of 16 entries per bank)", got)
	}
}

func TestPaperAndScaledValidate(t *testing.T) {
	if err := Paper().Validate(); err != nil {
		t.Errorf("Paper(): %v", err)
	}
	if err := Scaled().Validate(); err != nil {
		t.Errorf("Scaled(): %v", err)
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	p, s := Paper(), Scaled()
	// One PIM warp per channel: PIMSMs*4 warps == channels.
	if s.GPU.PIMSMs*4 != s.Memory.Channels {
		t.Errorf("scaled: %d PIM SMs x 4 warps != %d channels", s.GPU.PIMSMs, s.Memory.Channels)
	}
	// Same per-slice L2 capacity.
	if p.Cache.SliceBytes(p.Memory.Channels) != s.Cache.SliceBytes(s.Memory.Channels) {
		t.Errorf("slice bytes differ: paper %d, scaled %d",
			p.Cache.SliceBytes(p.Memory.Channels), s.Cache.SliceBytes(s.Memory.Channels))
	}
	// Timing and policy knobs unchanged.
	if p.Memory.Timing != s.Memory.Timing {
		t.Error("scaled config changed DRAM timing")
	}
	if p.Sched != s.Sched {
		t.Error("scaled config changed scheduling knobs")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	breakers := []struct {
		name  string
		mutat func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.GPU.NumSMs = 0 }},
		{"PIM SMs >= SMs", func(c *Config) { c.GPU.PIMSMs = c.GPU.NumSMs }},
		{"channels not pow2", func(c *Config) { c.Memory.Channels = 12 }},
		{"banks not pow2", func(c *Config) { c.Memory.Banks = 10 }},
		{"bank groups mismatch", func(c *Config) { c.Memory.BankGroups = 3 }},
		{"FUs mismatch", func(c *Config) { c.PIM.FUsPerChannel = 5 }},
		{"odd RF", func(c *Config) { c.PIM.RFSize = 15 }},
		{"one FU per bank", func(c *Config) { c.PIM.FUsPerChannel = 16 }},
		{"RF past one word per bank", func(c *Config) { c.PIM.RFSize = 130 }},
		{"zero MEM-Q", func(c *Config) { c.Memory.MemQSize = 0 }},
		{"tiny NoC buffer", func(c *Config) { c.NoC.BufferSize = 1 }},
		{"L2 not divisible", func(c *Config) { c.Cache.TotalBytes = 6<<20 + 1 }},
		{"G&I watermarks inverted", func(c *Config) { c.Sched.GILowWatermark = 99 }},
		{"zero F3FS cap", func(c *Config) { c.Sched.F3FSMemCap = 0 }},
	}
	for _, b := range breakers {
		c := Paper()
		b.mutat(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken config", b.name)
		}
	}
	// The widest register file whose per-bank share still fits one word.
	c := Paper()
	c.PIM.RFSize = 128
	if err := c.Validate(); err != nil || c.PIM.RFPerBank() != 64 {
		t.Errorf("RFSize 128: RFPerBank %d, Validate %v; want 64 entries accepted", c.PIM.RFPerBank(), err)
	}
}

func TestVCModeString(t *testing.T) {
	if VC1.String() != "VC1" || VC2.String() != "VC2" {
		t.Errorf("VCMode strings: %q %q", VC1, VC2)
	}
}

func TestEnumStrings(t *testing.T) {
	if MapInterleaved.String() != "interleaved" || MapIPoly.String() != "ipoly" {
		t.Error("AddressMap strings wrong")
	}
	if PageOpen.String() != "open-page" || PageClosed.String() != "closed-page" {
		t.Error("PagePolicy strings wrong")
	}
}

func TestL1ValidationAndDefaults(t *testing.T) {
	c := Paper()
	if c.Cache.L1Bytes != 32<<10 {
		t.Errorf("L1 = %d, want Table I's 32 KB", c.Cache.L1Bytes)
	}
	c.Cache.L1Ways = 0
	if err := c.Validate(); err == nil {
		t.Error("L1 enabled with zero ways accepted")
	}
	// Disabling the L1 entirely is valid (raw-traffic configuration).
	c = Paper()
	c.Cache.L1Bytes = 0
	c.Cache.L1Ways = 0
	if err := c.Validate(); err != nil {
		t.Errorf("L1-disabled config rejected: %v", err)
	}
}
