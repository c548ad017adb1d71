package bench

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the outcome of one benchmark run.
type Report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Notes says what failed (the first twenty).
	Notes []string `json:"notes,omitempty"`

	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run).
	Metrics map[string]Metric `json:"metrics"`
	// Samples gives, for each timing behind a metric and for the
	// workload-specific detail figures, the sample count and quartiles.
	Samples map[string]Summary `json:"samples,omitempty"`
	// Detail holds figures specific to the workload, outside the contract:
	// simulated Mcycles per host second, the tail percentile chosen, ....
	Detail map[string]Metric `json:"detail,omitempty"`
	// Unexercised names the per-layer metrics of layers this workload does
	// not use. The contract has every traced run print every per-layer
	// metric, so they are printed, as 0, and nothing measures them.
	Unexercised []string `json:"unexercised,omitempty"`

	// declared is what BENCHMARK.json declares for this kind of run: every
	// end-to-end metric, or (traced) every per-layer one; undeclared
	// collects what the run measured and the file lacks.
	declared   []MetricSpec
	undeclared []string
}

func newReport(opt Options) *Report {
	r := &Report{
		Workload: opt.Workload, Seed: opt.Seed, Trace: opt.Trace, Seconds: opt.Seconds,
		Metrics: map[string]Metric{}, Samples: map[string]Summary{}, Detail: map[string]Metric{},
		declared: opt.Spec.EndToEnd,
	}
	if opt.Trace {
		r.declared = opt.Spec.PerLayer
	}
	return r
}

// set records a contract metric with the unit BENCHMARK.json gives it.
func (r *Report) set(name string, v float64) {
	for _, m := range r.declared {
		if m.Name == name {
			r.Metrics[name] = Metric{Value: v, Unit: m.Unit}
			return
		}
	}
	r.undeclared = append(r.undeclared, name)
}

// sample records the distribution behind a figure.
func (r *Report) sample(name string, xs []float64) Summary {
	s := Summarize(xs)
	r.Samples[name] = s
	return s
}

func (r *Report) detail(name string, v float64, unit string) {
	r.Detail[name] = Metric{Value: v, Unit: unit}
}

// finish seals the verdict and checks that every declared metric of the
// run's kind was produced. A traced run has measured only the layers its
// workload exercises; the rest are filled in as Unexercised.
func (r *Report) finish(attempted, failed int, notes []string) error {
	r.Attempted, r.Failed, r.Notes = attempted, failed, notes
	r.Correct = failed == 0 && attempted > 0
	if len(r.undeclared) > 0 {
		return fmt.Errorf("bench: BENCHMARK.json does not declare %v", r.undeclared)
	}
	var missing []string
	for _, m := range r.declared {
		if _, ok := r.Metrics[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	sort.Strings(missing)
	if !r.Trace && len(missing) > 0 {
		return fmt.Errorf("bench: run produced no value for %v", missing)
	}
	for _, name := range missing {
		r.set(name, 0)
	}
	r.Unexercised = missing
	return nil
}

// ContractLine is the last line the command prints: one JSON object with
// exactly the keys the benchmark contract names.
func (r *Report) ContractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}
