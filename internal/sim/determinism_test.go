package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

// resultDigest hashes every schedule- and host-independent field of a
// Result: the full stats record, per-kernel outcomes, cycle counts,
// fault totals, and the telemetry metric points + sample ring. The
// Manifest is deliberately excluded — it carries wall-clock and
// process-cost fields that legitimately differ between runs.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	parts := []any{
		res.Stats, res.Kernels, res.GPUCycles, res.DRAMCycles,
		res.Aborted, res.Faults,
	}
	if res.Telemetry != nil {
		parts = append(parts, res.Telemetry.Metrics(), res.Telemetry.Sampler.Snapshots())
	}
	for _, v := range parts {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// determinismDigest builds a fresh System from cfg (Systems are
// single-use), runs it with telemetry attached — on an epoch that divides
// neither the progress-check cadence nor the other harnesses' epochs, so
// jumps must land on boundaries of their own — and returns the result
// digest.
func determinismDigest(t *testing.T, cfg config.Config, tick bool) string {
	t.Helper()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.1),
		pimDesc(t, "P1", pimSMs, 0.1),
	}
	sys, err := New(cfg, core.Factory("f3fs", cfg.Sched), descs)
	if err != nil {
		t.Fatal(err)
	}
	if tick {
		sys.useTickLoop()
	}
	sys.EnableTelemetry(500, 0)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(t, res)
}

// TestDeterminismDoubleRun is the repository's determinism contract as
// a regression test: the same (config, seed) run twice must produce
// byte-identical results and telemetry. Run under -race in CI, this
// also shakes out any unsynchronized state that could make the pair
// diverge.
func TestDeterminismDoubleRun(t *testing.T) {
	cfg := testCfg()
	cfg.NoC.Mode = config.VC2
	first := determinismDigest(t, cfg, false)
	second := determinismDigest(t, cfg, false)
	if first != second {
		t.Fatalf("identical configs diverged:\n first %s\nsecond %s", first, second)
	}
}

// TestDeterminismDoubleRunWithFaults extends the contract to an active
// fault schedule: injection draws from seeded splitmix64 streams, so a
// faulty run must be exactly as reproducible as a clean one.
func TestDeterminismDoubleRunWithFaults(t *testing.T) {
	cfg := faultCfg()
	cfg.Faults.Seed = 99
	first := determinismDigest(t, cfg, false)
	second := determinismDigest(t, cfg, false)
	if first != second {
		t.Fatalf("identical faulty configs diverged:\n first %s\nsecond %s", first, second)
	}
}

// TestDeterminism2x2Engines widens the contract across the engine axis:
// for each fault condition, running the per-cycle loop twice and the
// skip-ahead loop twice must yield one identical digest across all four
// runs. Engine choice is a performance knob, never an observable one.
// Run under -race in CI like the double-run tests above.
func TestDeterminism2x2Engines(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() config.Config
	}{
		{"clean", func() config.Config {
			cfg := testCfg()
			cfg.NoC.Mode = config.VC2
			return cfg
		}},
		{"faulty", func() config.Config {
			cfg := faultCfg()
			cfg.Faults.Seed = 99
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, tick := range []bool{true, false} {
				for rep := 0; rep < 2; rep++ {
					got := determinismDigest(t, tc.cfg(), tick)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("tick=%v rep=%d digest %s != %s", tick, rep, got, want)
					}
				}
			}
		})
	}
}
