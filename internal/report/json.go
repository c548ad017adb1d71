package report

import (
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// PairRecord flattens one competitive result for machine consumption.
type PairRecord struct {
	VC                 string  `json:"vc"`
	Policy             string  `json:"policy"`
	GPU                string  `json:"gpu"`
	PIM                string  `json:"pim"`
	GPUSpeedup         float64 `json:"gpu_speedup"`
	PIMSpeedup         float64 `json:"pim_speedup"`
	Fairness           float64 `json:"fairness"`
	Throughput         float64 `json:"throughput"`
	MemArrivalNorm     float64 `json:"mem_arrival_norm"`
	Switches           uint64  `json:"switches"`
	ConflictsPerSwitch float64 `json:"conflicts_per_switch"`
	DrainPerSwitch     float64 `json:"drain_per_switch"`
	AvgMemQ            float64 `json:"avg_memq"`
	AvgPIMQ            float64 `json:"avg_pimq"`
	Aborted            bool    `json:"aborted"`
	// Faults counts the injected fault events, when a schedule was
	// active.
	Faults *faults.Counts `json:"faults,omitempty"`
}

// SweepRecords flattens a sweep into one record per combination, in
// deterministic (mode, policy, gpu, pim) order.
func SweepRecords(s *experiments.Sweep) []PairRecord {
	var out []PairRecord
	for _, pair := range s.Cells {
		out = append(out, PairRecord{
			VC: pair.Mode.String(), Policy: pair.Policy, GPU: pair.GPUID, PIM: pair.PIMID,
			GPUSpeedup: pair.GPUSpeedup, PIMSpeedup: pair.PIMSpeedup,
			Fairness: pair.Fairness, Throughput: pair.Throughput,
			MemArrivalNorm:     pair.MemArrivalNorm,
			Switches:           pair.Switches,
			ConflictsPerSwitch: pair.ConflictsPerSwitch,
			DrainPerSwitch:     pair.DrainPerSwitch,
			AvgMemQ:            pair.AvgMemQ,
			AvgPIMQ:            pair.AvgPIMQ,
			Aborted:            pair.Aborted,
			Faults:             pair.Faults,
		})
	}
	return out
}

// SweepJSON marshals the flattened sweep with indentation.
func SweepJSON(s *experiments.Sweep) ([]byte, error) {
	return json.MarshalIndent(SweepRecords(s), "", "  ")
}
