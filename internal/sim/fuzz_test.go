package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

func workloadGPU(id string) (*workload.GPUProfile, error) {
	p, err := workload.GPUProfileByID(id)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

func workloadPIM(id string) (*workload.PIMProfile, error) {
	p, err := workload.PIMProfileByID(id)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// FuzzNextEvent drives the equivalence contract with randomized request
// streams and fault schedules: for any workload the fuzzer can construct,
// the skip-ahead engine must never jump past a cycle at which the
// per-cycle engine's observable state changes. The check is per-epoch,
// not merely final: both engines sample telemetry on a fine epoch grid,
// and every epoch's digest must match — a jump that skipped a state
// change would desynchronize the first epoch containing it.
func FuzzNextEvent(f *testing.F) {
	// Seed corpus spanning the workload classes: MEM-only, PIM-only,
	// mixed, each policy family, both VC modes, clean and faulty.
	f.Add(uint8(0), uint8(0), uint8(0), false, int64(1), uint8(0), int64(0))
	f.Add(uint8(1), uint8(255), uint8(1), true, int64(7), uint8(0), int64(0))
	f.Add(uint8(255), uint8(1), uint8(2), false, int64(3), uint8(9), int64(42))
	f.Add(uint8(2), uint8(2), uint8(3), true, int64(11), uint8(255), int64(5))
	f.Add(uint8(3), uint8(1), uint8(4), true, int64(2), uint8(37), int64(99))

	gpuIDs := []string{"G4", "G8", "G13", "G17"}
	pimIDs := []string{"P1", "P2"}
	policies := []string{"fcfs", "fr-fcfs", "fr-rr-fcfs", "mem-first", "f3fs"}

	f.Fuzz(func(t *testing.T, gpuSel, pimSel, polSel uint8, vc2 bool, seed int64, faultSel uint8, faultSeed int64) {
		cfg := config.Scaled()
		// Bound each case: the fuzzer explores breadth, not length.
		cfg.MaxGPUCycles = 120_000
		if vc2 {
			cfg.NoC.Mode = config.VC2
		}
		// Derive a bounded fault schedule from the selector; 0 keeps the
		// run clean.
		if faultSel > 0 {
			cfg.Faults = faults.Schedule{
				Seed:            faultSeed,
				DRAMRetryProb:   float64(faultSel&0x3) / 500,
				DRAMRetryCycles: 8 + int64(faultSel&0xF),
				NoCStallProb:    float64((faultSel>>2)&0x3) / 1000,
				NoCStallCycles:  16 + int64(faultSel&0x7),
				ThrottlePeriod:  uint64(20_000 + 1000*int(faultSel>>4)),
				ThrottleWindow:  uint64(500 + 100*int(faultSel&0xF)),
			}
		}
		policy := policies[int(polSel)%len(policies)]

		// gpuSel/pimSel == 0 drops that kernel (PIM-only / MEM-only
		// runs); at least one kernel always remains.
		var descs func(cfg config.Config) []KernelDesc
		descs = func(cfg config.Config) []KernelDesc {
			gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
			var out []KernelDesc
			if gpuSel != 0 || pimSel == 0 {
				p, err := workloadGPU(gpuIDs[int(gpuSel)%len(gpuIDs)])
				if err != nil {
					t.Fatal(err)
				}
				sms := gpuSMs
				if pimSel == 0 {
					sms = SomeSMs(cfg, cfg.GPU.NumSMs)
				}
				out = append(out, KernelDesc{GPU: p, SMs: sms, Scale: 0.04, Seed: seed})
			}
			if pimSel != 0 {
				p, err := workloadPIM(pimIDs[int(pimSel)%len(pimIDs)])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, KernelDesc{PIM: p, SMs: pimSMs, Scale: 0.04, Base: 512 << 20, Seed: seed})
			}
			return out
		}

		run := func(tick bool) *Result {
			sys, err := New(cfg, core.Factory(policy, cfg.Sched), descs(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if tick {
				sys.useTickLoop()
			}
			// Two epoch grids across the corpus: one aligned with the
			// progress-check cadence, one with nothing.
			epoch := uint64(256)
			if vc2 {
				epoch = 250
			}
			sys.EnableTelemetry(epoch, 0)
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		tick := run(true)
		event := run(false)

		// Per-epoch digests: localize a divergence to the first epoch
		// whose sampled state differs.
		ts := tick.Telemetry.Sampler.Snapshots()
		es := event.Telemetry.Sampler.Snapshots()
		n := len(ts)
		if len(es) < n {
			n = len(es)
		}
		for i := 0; i < n; i++ {
			td := snapDigest(t, sha256.New(), ts[i])
			ed := snapDigest(t, sha256.New(), es[i])
			if td != ed {
				t.Fatalf("engines diverged at epoch %d (cycle %d): tick %s, event %s\n tick  %+v\n event %+v",
					i, ts[i].GPUCycle, td[:12], ed[:12], ts[i], es[i])
			}
		}
		if len(ts) != len(es) {
			t.Fatalf("epoch counts differ: tick %d, event %d", len(ts), len(es))
		}
		if td, ed := resultDigest(t, tick), resultDigest(t, event); td != ed {
			t.Fatalf("final digests diverged with identical epoch series:\n tick  %s\n event %s", td, ed)
		}
	})
}

// snapDigest hashes one telemetry snapshot.
func snapDigest(t *testing.T, h hash.Hash, v any) string {
	t.Helper()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
