package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// telemetryRun builds a small co-execution with an attached collector
// and runs it.
func telemetryRun(t *testing.T, interval uint64) (*Result, *telemetry.Collector) {
	t.Helper()
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.05),
		pimDesc(t, "P1", pimSMs, 0.05),
	})
	if err != nil {
		t.Fatal(err)
	}
	col := sys.EnableTelemetry(interval, 0)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

// TestTelemetrySamplerMatchesStats cross-checks the epoch sampler against
// the simulator's own accumulators: the last snapshot's cumulative
// occupancy sums must equal a prefix of the final stats.Channel values,
// and per-epoch averages reconstructed from adjacent snapshots must use
// exactly the cycles the controller sampled.
func TestTelemetrySamplerMatchesStats(t *testing.T) {
	res, col := telemetryRun(t, 512)
	snaps := col.Sampler.Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots at interval 512 over %d cycles", len(snaps), res.GPUCycles)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].GPUCycle <= snaps[i-1].GPUCycle {
			t.Fatalf("snapshots out of order: %d then %d", snaps[i-1].GPUCycle, snaps[i].GPUCycle)
		}
		for ch := range snaps[i].Channels {
			cur, prev := snaps[i].Channels[ch], snaps[i-1].Channels[ch]
			if cur.SampledCycles < prev.SampledCycles ||
				cur.MemQOccupancySum < prev.MemQOccupancySum ||
				cur.PIMQOccupancySum < prev.PIMQOccupancySum {
				t.Fatalf("channel %d accumulators regressed between snapshots", ch)
			}
			// Hand-compute the epoch's average MEM queue occupancy; it
			// must be bounded by the queue capacity.
			dc := cur.SampledCycles - prev.SampledCycles
			if dc > 0 {
				avg := float64(cur.MemQOccupancySum-prev.MemQOccupancySum) / float64(dc)
				if avg < 0 || avg > 256 {
					t.Fatalf("implausible epoch avg MEM occupancy %g", avg)
				}
			}
		}
	}
	// The final stats continue past the last snapshot, never the reverse.
	last := snaps[len(snaps)-1]
	for ch := range last.Channels {
		st := &res.Stats.Channels[ch]
		if last.Channels[ch].SampledCycles > st.SampledCycles {
			t.Fatalf("channel %d: snapshot sampled %d cycles, final stats only %d",
				ch, last.Channels[ch].SampledCycles, st.SampledCycles)
		}
		if last.Channels[ch].MemQOccupancySum > st.MemQOccupancySum {
			t.Fatalf("channel %d: snapshot occupancy sum exceeds final stats", ch)
		}
	}
}

// TestTelemetryModeResidency checks the controller's residency account
// as the sampler records it: every sampled DRAM cycle is attributed to
// exactly one of MEM service, PIM service, or draining, so in the
// end-of-run snapshot the three partition stats.Channel.SampledCycles.
func TestTelemetryModeResidency(t *testing.T) {
	res, col := telemetryRun(t, 2048)
	snaps := col.Sampler.Snapshots()
	last := snaps[len(snaps)-1]
	for ch, cs := range last.Channels {
		want := res.Stats.Channels[ch].SampledCycles
		if got := cs.MemModeCycles + cs.PIMModeCycles + cs.DrainCycles; got != want || cs.SampledCycles != want {
			t.Fatalf("channel %d: residency %d, snapshot sampled %d, stats sampled %d", ch, got, cs.SampledCycles, want)
		}
		if cs.PIMModeCycles == 0 {
			t.Fatalf("channel %d: no PIM-mode residency despite a PIM kernel", ch)
		}
	}
}

// TestPublishedMetricsAccountForEveryEvent holds the metric points a run
// publishes to the counts the rest of the result carries, over one cell
// with DRAM retries, NoC link stalls and throttle windows all firing and
// one with refresh on: the per-channel fault counts sum to Result.Faults,
// the link stalls equal its totals, residency partitions SampledCycles,
// each channel's drain_latency point counts its switches with a drain sum
// no smaller than the MEM->PIM one stats keeps, and refreshes match stats.
func TestPublishedMetricsAccountForEveryEvent(t *testing.T) {
	faulty := testCfg()
	faulty.Faults = faults.Schedule{
		Seed:          3,
		DRAMRetryProb: 0.01, DRAMRetryCycles: 12,
		NoCStallProb: 0.005, NoCStallCycles: 24,
		ThrottlePeriod: 10_000, ThrottleWindow: 500,
	}
	refresh := testCfg()
	refresh.Memory.Timing.TREFI = 1900
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{{"faults", faulty}, {"refresh", refresh}} {
		t.Run(tc.name, func(t *testing.T) {
			gpuSMs, pimSMs := GPUAndPIMSMs(tc.cfg)
			sys, err := New(tc.cfg, core.Factory("fr-fcfs", tc.cfg.Sched), []KernelDesc{
				gpuDesc(t, "G8", gpuSMs, 0.05),
				pimDesc(t, "P1", pimSMs, 0.05),
			})
			if err != nil {
				t.Fatal(err)
			}
			col := sys.EnableTelemetry(0, 0)
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			points := map[string]telemetry.MetricPoint{}
			for _, p := range col.Metrics() {
				points[p.Name] = p
			}
			if want := 10*len(res.Stats.Channels) + 4; len(points) != want || len(col.Metrics()) != want {
				t.Fatalf("%d points under %d names, want %d", len(col.Metrics()), len(points), want)
			}
			value := func(name string) uint64 { return uint64(points[name].Value) }
			var got faults.Counts
			var switches, refreshes uint64
			for ch, st := range res.Stats.Channels {
				name := func(metric string) string { return telemetry.Name("mc", ch, metric) }
				got.DRAMRetries += value(name("ecc_retries"))
				got.DRAMRetryCycles += value(name("ecc_retry_cycles"))
				got.ThrottledCycles += value(name("throttled_cycles"))
				if r := value(name("mem_mode_cycles")) + value(name("pim_mode_cycles")) + value(name("drain_cycles")); r != st.SampledCycles {
					t.Errorf("channel %d: residency %d, sampled cycles %d", ch, r, st.SampledCycles)
				}
				if d := points[name("drain_latency")]; d.Kind != "histogram" || d.Count != st.Switches || d.Sum < float64(st.DrainLatencySum) {
					t.Errorf("channel %d: drain_latency %+v, switches %d, MEM->PIM drain sum %d", ch, d, st.Switches, st.DrainLatencySum)
				}
				if r := value(name("refreshes")); r != st.Refreshes {
					t.Errorf("channel %d: %d refreshes published, stats %d", ch, r, st.Refreshes)
				}
				switches += st.Switches
				refreshes += st.Refreshes
			}
			got.NoCLinkStalls = value("noc/link_stalls")
			got.NoCLinkStallCycles = value("noc/link_stall_cycles")
			var want faults.Counts
			if res.Faults != nil {
				want = *res.Faults
			}
			if got != want {
				t.Errorf("published fault counts %+v, Result.Faults %+v", got, want)
			}
			if switches == 0 || value("noc/injected") == 0 {
				t.Errorf("cell exercised nothing: %d switches, %d injections", switches, value("noc/injected"))
			}
			if tc.name == "faults" && (want.DRAMRetries == 0 || want.NoCLinkStalls == 0 || want.ThrottledCycles == 0) {
				t.Errorf("not every fault class fired: %+v", want)
			}
			if tc.name == "refresh" && refreshes == 0 {
				t.Error("no refresh issued with tREFI on")
			}
		})
	}
}

// TestTelemetryManifestAttached checks that every run carries a manifest
// whose simulation fields match the result.
func TestTelemetryManifestAttached(t *testing.T) {
	res, col := telemetryRun(t, 4096)
	m := res.Manifest
	if m == nil {
		t.Fatal("no manifest on result")
	}
	if m.GPUCycles != res.GPUCycles || m.DRAMCycles != res.DRAMCycles || m.Aborted != res.Aborted {
		t.Fatalf("manifest run outcome %+v mismatches result (%d, %d, %v)",
			m, res.GPUCycles, res.DRAMCycles, res.Aborted)
	}
	cfg := testCfg()
	if m.Channels != cfg.Memory.Channels || m.SMs != cfg.GPU.NumSMs || m.Seed != cfg.Seed {
		t.Fatalf("manifest machine shape %+v mismatches config", m)
	}
	if len(m.Kernels) != 2 {
		t.Fatalf("manifest kernels = %v", m.Kernels)
	}
	if m.ConfigHash == "" || m.ConfigHash == "unhashable" {
		t.Fatalf("config hash = %q", m.ConfigHash)
	}
	if m.SampleInterval != 4096 || m.Samples != len(col.Sampler.Snapshots()) {
		t.Fatalf("manifest sampling fields %d/%d", m.SampleInterval, m.Samples)
	}
	if res.Telemetry != col {
		t.Fatal("result does not carry the collector")
	}
}

// TestTelemetryDoesNotPerturbSimulation runs the same system with and
// without a collector: cycle counts and per-channel counters must be
// bit-identical (telemetry observes, never steers).
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cfg := testCfg()
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	descs := func() []KernelDesc {
		return []KernelDesc{
			gpuDesc(t, "G8", gpuSMs, 0.05),
			pimDesc(t, "P1", pimSMs, 0.05),
		}
	}
	plain := mustRun(t, cfg, "fr-fcfs", descs())
	res, _ := telemetryRun(t, 512)
	if plain.GPUCycles != res.GPUCycles || plain.DRAMCycles != res.DRAMCycles {
		t.Fatalf("telemetry changed the run: %d/%d vs %d/%d",
			plain.GPUCycles, plain.DRAMCycles, res.GPUCycles, res.DRAMCycles)
	}
	for ch := range plain.Stats.Channels {
		a, b := plain.Stats.Channels[ch], res.Stats.Channels[ch]
		if a != b {
			t.Fatalf("channel %d stats diverged with telemetry on", ch)
		}
	}
}

// TestTelemetryGlobalSwitch verifies New auto-attaches a collector while
// the process-wide switch is on.
func TestTelemetryGlobalSwitch(t *testing.T) {
	telemetry.Enable(true)
	defer telemetry.Enable(false)
	cfg := testCfg()
	gpuSMs, _ := GPUAndPIMSMs(cfg)
	sys, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), []KernelDesc{
		gpuDesc(t, "G8", gpuSMs, 0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("no collector despite telemetry.Enable(true)")
	}
	if len(res.Telemetry.Sampler.Snapshots()) == 0 {
		t.Fatal("no snapshots recorded")
	}
	if res.Manifest.HeapAllocBytes == 0 {
		t.Fatal("manifest allocation counters empty while enabled")
	}
}
