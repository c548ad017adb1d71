package sim

import (
	"testing"
)

// Golden regression tests: exact cycle counts of small canned scenarios.
// These WILL change whenever the timing model, the scheduling engines, or
// the workload generators change behavior — that is their purpose: any
// unintentional behavioral drift fails loudly, and intentional changes
// update the constants in one place.
//
// All goldens use testCfg() (Scaled config, 8 channels, 20 SMs) at scale
// 0.1 with the default seed.

func goldenRun(t *testing.T, policy string, gpuID, pimID string) *Result {
	t.Helper()
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{}
	if gpuID != "" {
		descs = append(descs, gpuDesc(t, gpuID, gpuSMs, 0.1))
	}
	if pimID != "" {
		descs = append(descs, pimDesc(t, pimID, pimSMs, 0.1))
	}
	return mustRun(t, cfg, policy, descs)
}

func TestGoldenCompetitiveF3FS(t *testing.T) {
	res := goldenRun(t, "f3fs", "G8", "P1")
	const wantCycles = 9434
	if res.GPUCycles != wantCycles {
		t.Errorf("G8xP1/f3fs GPU cycles = %d, golden %d (timing model drift?)", res.GPUCycles, wantCycles)
	}
	tc := res.Stats.TotalChannel()
	const wantSwitches = 66
	if tc.Switches != wantSwitches {
		t.Errorf("switches = %d, golden %d", tc.Switches, wantSwitches)
	}
}

func TestGoldenCompetitiveFCFS(t *testing.T) {
	res := goldenRun(t, "fcfs", "G8", "P1")
	const wantCycles = 28530
	if res.GPUCycles != wantCycles {
		t.Errorf("G8xP1/fcfs GPU cycles = %d, golden %d", res.GPUCycles, wantCycles)
	}
}

func TestGoldenPIMStandalone(t *testing.T) {
	res := goldenRun(t, "fr-fcfs", "", "P4")
	const wantCycles = 6148
	if res.GPUCycles != wantCycles {
		t.Errorf("P4 standalone GPU cycles = %d, golden %d", res.GPUCycles, wantCycles)
	}
	tc := res.Stats.TotalChannel()
	if tc.PIMOps != uint64(res.Kernels[0].Total) {
		t.Errorf("PIM ops %d != total %d", tc.PIMOps, res.Kernels[0].Total)
	}
}

func TestGoldenGPUStandalone(t *testing.T) {
	cfg := testCfg()
	res := mustRun(t, cfg, "fr-fcfs", []KernelDesc{gpuDesc(t, "G17", SomeSMs(cfg, cfg.GPU.NumSMs), 0.1)})
	const wantCycles = 1701
	if res.GPUCycles != wantCycles {
		t.Errorf("G17 standalone GPU cycles = %d, golden %d", res.GPUCycles, wantCycles)
	}
}
