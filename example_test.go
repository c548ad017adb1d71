package pimsim_test

import (
	"fmt"

	pimsim "repro"
)

// The fairness index of Eq. 1 compares the two kernels' speedups under
// contention; 1 is perfectly fair, 0 is starvation.
func ExampleFairnessIndex() {
	fmt.Printf("%.2f\n", pimsim.FairnessIndex(0.8, 0.4))
	fmt.Printf("%.2f\n", pimsim.FairnessIndex(0.6, 0.6))
	fmt.Printf("%.2f\n", pimsim.FairnessIndex(0.9, 0.0))
	// Output:
	// 0.50
	// 1.00
	// 0.00
}

// System throughput is the sum of kernel speedups.
func ExampleSystemThroughput() {
	fmt.Printf("%.2f\n", pimsim.SystemThroughput(0.45, 0.54))
	// Output: 0.99
}

// Policies lists the nine evaluated schedulers in paper order.
func ExamplePolicies() {
	for _, name := range pimsim.Policies()[:3] {
		fmt.Println(name)
	}
	// Output:
	// fcfs
	// mem-first
	// pim-first
}

// Proposed configures the paper's full proposal in place.
func ExampleProposed() {
	cfg := pimsim.ScaledConfig()
	policy := pimsim.Proposed(&cfg)
	fmt.Println(policy, cfg.NoC.Mode)
	// Output: f3fs VC2
}
