// Multi-tenant sharing: three tenants — two GPU kernels (an irregular
// graph workload and a stencil) and one PIM STREAM kernel — share the
// machine. The example reports per-tenant progress and the memory
// controller's switching behavior.
//
//	go run ./examples/tenancy
package main

import (
	"fmt"
	"log"

	pimsim "repro"
)

func main() {
	cfg := pimsim.ScaledConfig()
	policy := pimsim.Proposed(&cfg) // VC2 + F3FS

	bfs, err := pimsim.GPUProfileByID("G3")
	if err != nil {
		log.Fatal(err)
	}
	hotspot, err := pimsim.GPUProfileByID("G8")
	if err != nil {
		log.Fatal(err)
	}
	stream, err := pimsim.PIMProfileByID("P1")
	if err != nil {
		log.Fatal(err)
	}

	// Partition the SMs by hand: the PIM kernel keeps its reserved SMs,
	// the two GPU tenants split the rest.
	gpuSMs, pimSMs := pimsim.GPUAndPIMSMs(cfg)
	half := len(gpuSMs) / 2
	descs := []pimsim.KernelDesc{
		{GPU: &bfs, SMs: gpuSMs[:half], Scale: 0.2},
		{GPU: &hotspot, SMs: gpuSMs[half:], Scale: 0.2, Base: 256 << 20},
		{PIM: &stream, SMs: pimSMs, Scale: 0.2, Base: 1 << 30},
	}

	sys, err := pimsim.NewSystem(cfg, policy, descs)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("three tenants under %s + %s, %d GPU cycles\n\n", cfg.NoC.Mode, policy, res.GPUCycles)
	fmt.Printf("%-18s %10s %10s %8s\n", "tenant", "finish", "requests", "runs")
	for _, k := range res.Kernels {
		fmt.Printf("%-18s %10d %10d %8d\n", k.Label, k.FirstFinish, k.Total, k.Runs)
	}

	tc := res.Stats.TotalChannel()
	fmt.Printf("\nmemory system: %d switches, RBHR %.3f, PIM locality %.3f\n",
		tc.Switches, tc.RBHR(),
		float64(tc.PIMRowHits)/float64(tc.PIMRowHits+tc.PIMRowMisses))
}
