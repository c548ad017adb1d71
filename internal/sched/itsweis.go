package sched

// ITS and WEIS are the multi-application GPU memory schedulers of Jog et
// al. (MEMSYS'15), discussed in the paper's related work: ITS prioritizes
// the application with the higher instruction throughput (fewest pending
// memory demands), WEIS the one with the higher weighted speedup
// (attained DRAM bandwidth share). The paper argues both "would devolve
// into MEM/PIM-First depending on their priority order" when the two
// applications are a MEM kernel and a PIM kernel — the adaptations below
// exist to test exactly that claim (see
// TestITSAndWEISDevolveIntoStaticPriority).

// ITS prioritizes the application with fewer queued requests (a proxy for
// "higher instruction throughput per memory request" — the less
// memory-bound app is served first to keep its instruction stream
// moving). Ties keep the current mode.
type ITS struct{}

// NewITS returns the instruction-throughput-style policy.
func NewITS() *ITS { return &ITS{} }

// Name implements Policy.
func (*ITS) Name() string { return "its" }

// DesiredMode implements Policy: serve the side with the smaller backlog.
// A PIM kernel keeps its queue saturated, so in MEM/PIM co-execution this
// almost always selects MEM — MEM-First in practice.
func (*ITS) DesiredMode(v View) Mode {
	memLen, pimLen := v.MemQLen(), v.PIMQLen()
	switch {
	case memLen == 0 && pimLen == 0:
		return v.Mode()
	case memLen == 0:
		return ModePIM
	case pimLen == 0:
		return ModeMEM
	case memLen < pimLen:
		return ModeMEM
	case pimLen < memLen:
		return ModePIM
	default:
		return v.Mode()
	}
}

// OnIssue implements Policy.
func (*ITS) OnIssue(View, IssueInfo) {}

// OnSwitch implements Policy.
func (*ITS) OnSwitch(View, Mode) {}

// WEIS prioritizes the application with the higher attained DRAM
// bandwidth (served-request share), reinforcing the current winner. A PIM
// kernel's lockstep blocks attain bandwidth faster than scattered MEM
// accesses, so in MEM/PIM co-execution this locks onto PIM — PIM-First in
// practice.
type WEIS struct {
	servedMem uint64
	servedPIM uint64
}

// NewWEIS returns the weighted-speedup-style policy.
func NewWEIS() *WEIS { return &WEIS{} }

// Name implements Policy.
func (*WEIS) Name() string { return "weis" }

// DesiredMode implements Policy: serve the side with the larger attained
// service so far (its weighted speedup is highest); fall back to whoever
// has work.
func (p *WEIS) DesiredMode(v View) Mode {
	memLen, pimLen := v.MemQLen(), v.PIMQLen()
	switch {
	case memLen == 0 && pimLen == 0:
		return v.Mode()
	case memLen == 0:
		return ModePIM
	case pimLen == 0:
		return ModeMEM
	case p.servedPIM > p.servedMem:
		return ModePIM
	case p.servedMem > p.servedPIM:
		return ModeMEM
	default:
		return v.Mode()
	}
}

// OnIssue implements Policy.
func (p *WEIS) OnIssue(_ View, info IssueInfo) {
	if info.Mode == ModePIM {
		p.servedPIM++
	} else {
		p.servedMem++
	}
}

// OnSwitch implements Policy.
func (*WEIS) OnSwitch(View, Mode) {}
