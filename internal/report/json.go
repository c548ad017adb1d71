package report

import (
	"encoding/json"

	"repro/internal/experiments"
)

// PairRecord flattens one competitive result for machine consumption:
// the combination, then its outcome record (pimserve's competitive
// payload).
type PairRecord struct {
	VC     string `json:"vc"`
	Policy string `json:"policy"`
	GPU    string `json:"gpu"`
	PIM    string `json:"pim"`
	experiments.Metrics
}

// SweepRecords flattens a sweep into one record per combination, in
// deterministic (mode, policy, gpu, pim) order.
func SweepRecords(s *experiments.Sweep) []PairRecord {
	var out []PairRecord
	for _, pair := range s.Cells {
		out = append(out, PairRecord{VC: pair.Mode.String(), Policy: pair.Policy, GPU: pair.GPUID, PIM: pair.PIMID,
			Metrics: pair.Metrics()})
	}
	return out
}

// SweepJSON marshals the flattened sweep with indentation.
func SweepJSON(s *experiments.Sweep) ([]byte, error) {
	return json.MarshalIndent(SweepRecords(s), "", "  ")
}
