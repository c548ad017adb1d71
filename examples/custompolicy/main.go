// Custom scheduling policy: the simulator's policy interface is public,
// so new memory-controller mode-switching policies can be plugged in
// without touching the simulator. A policy is four methods — Name,
// DesiredMode, OnIssue, OnSwitch — and runs the paper's FR-FCFS inside MEM
// mode. This example implements a simple time-slice policy — alternate MEM
// and PIM modes on a fixed DRAM-cycle quantum — wires it into a
// co-execution, and compares it against F3FS.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	pimsim "repro"
)

// timeSlice alternates modes on a fixed quantum, a textbook fair-share
// design. It ignores row locality entirely, which is exactly why the
// paper's locality-aware F3FS beats this kind of scheme on throughput.
type timeSlice struct {
	Quantum    uint64
	sliceStart uint64 // the first slice starts at DRAM cycle 0
}

func (p *timeSlice) Name() string { return "time-slice" }

func (p *timeSlice) DesiredMode(v pimsim.SchedView) pimsim.SchedMode {
	cur := v.Mode()
	// Nothing to do in the current mode: follow the work immediately.
	curLen, otherLen := v.MemQLen(), v.PIMQLen()
	if cur == pimsim.ModePIM {
		curLen, otherLen = otherLen, curLen
	}
	if curLen == 0 && otherLen > 0 {
		return cur.Other()
	}
	// Quantum expired and the other side has work: rotate.
	if v.Now()-p.sliceStart >= p.Quantum && otherLen > 0 {
		return cur.Other()
	}
	return cur
}

func (p *timeSlice) OnIssue(pimsim.SchedView, pimsim.IssueInfo) {}
func (p *timeSlice) OnSwitch(v pimsim.SchedView, _ pimsim.SchedMode) {
	p.sliceStart = v.Now()
}

func main() {
	cfg := pimsim.ScaledConfig()
	cfg.NoC.Mode = pimsim.VC2

	gpuProf, err := pimsim.GPUProfileByID("G17") // pathfinder: locality-sensitive
	if err != nil {
		log.Fatal(err)
	}
	pimProf, err := pimsim.PIMProfileByID("P1")
	if err != nil {
		log.Fatal(err)
	}
	gpuSMs, pimSMs := pimsim.GPUAndPIMSMs(cfg)
	descs := []pimsim.KernelDesc{
		{GPU: &gpuProf, SMs: gpuSMs, Scale: 0.25},
		{PIM: &pimProf, SMs: pimSMs, Scale: 0.25, Base: 1 << 30},
	}

	run := func(label string, factory pimsim.PolicyFactory) {
		sys, err := pimsim.NewSystemWithFactory(cfg, factory, descs)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			log.Fatal(err)
		}
		tc := res.Stats.TotalChannel()
		fmt.Printf("%-22s total %8d cycles, switches %6d, RBHR %.3f\n",
			label, res.GPUCycles, tc.Switches, tc.RBHR())
	}

	for _, q := range []uint64{100, 1000, 10000} {
		q := q
		run(fmt.Sprintf("time-slice (q=%d)", q), func() pimsim.Policy {
			return &timeSlice{Quantum: q}
		})
	}
	run("f3fs (256/256)", func() pimsim.Policy { return pimsim.NewF3FS(256, 256) })
}
