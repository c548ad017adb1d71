package pimsim

// One table-driven testing.B benchmark regenerates every entry of the
// figure registry at a reduced scale, so `go test -bench=. -benchmem`
// exercises each artifact's harness in one pass. The tables themselves
// come from `pim sweep -fig <id>`; end-to-end performance is measured by
// `go run ./bench/cmd/pimbench` (BENCHMARK.json), not here.

import (
	"context"
	"testing"
)

const benchScale = 0.2

func benchConfig() Config {
	cfg := ScaledConfig()
	cfg.MaxGPUCycles = 2_000_000
	return cfg
}

// BenchmarkFigures runs each registry figure (sub-benchmark name = its
// `pim sweep -fig` ID) on a small kernel set; fcfs stays in the policy
// set because Fig. 10 normalizes to it.
func BenchmarkFigures(b *testing.B) {
	gpus, pims := []string{"G8", "G17"}, []string{"P2"}
	policies := []string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "f3fs"}
	for _, f := range Figures() {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRunner(benchConfig(), benchScale)
				r.Parallel = 4
				if _, err := f.Run(context.Background(), r, gpus, pims, policies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPagePolicyAblation compares the open-page baseline against the
// closed-page extension knob under the proposed system: how much of the
// result rests on row-buffer locality.
func BenchmarkPagePolicyAblation(b *testing.B) {
	run := func(page PagePolicy) float64 {
		cfg := benchConfig()
		cfg.Memory.Page = page
		pair, err := NewRunner(cfg, benchScale).Competitive("G17", "P1", "f3fs", VC2)
		if err != nil {
			b.Fatal(err)
		}
		return pair.Throughput
	}
	for i := 0; i < b.N; i++ {
		open := run(PageOpen)
		closed := run(PageClosed)
		if i == b.N-1 {
			b.ReportMetric(open, "st-open-page")
			b.ReportMetric(closed, "st-closed-page")
		}
	}
}
