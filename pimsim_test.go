package pimsim

import (
	"context"
	"strings"
	"testing"
)

// These tests exercise the public facade exactly the way a downstream
// user would; the heavy behavioral coverage lives in the internal
// packages.

func TestConfigsValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := ScaledConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestPoliciesListAndConstruction(t *testing.T) {
	pols := Policies()
	if len(pols) != 9 {
		t.Fatalf("%d policies, want 9", len(pols))
	}
	cfg := ScaledConfig()
	for _, name := range pols {
		if NewPolicy(name, cfg) == nil {
			t.Errorf("NewPolicy(%q) = nil", name)
		}
	}
	if NewPolicy("bogus", cfg) != nil {
		t.Error("bogus policy constructed")
	}
	// Mutating the returned slice must not corrupt the registry.
	pols[0] = "corrupted"
	if Policies()[0] != "fcfs" {
		t.Error("Policies() exposes internal state")
	}
}

func TestProfileTables(t *testing.T) {
	if len(GPUProfiles()) != 20 || len(PIMProfiles()) != 9 {
		t.Fatalf("profile tables: %d GPU, %d PIM", len(GPUProfiles()), len(PIMProfiles()))
	}
	if _, err := GPUProfileByID("G1"); err != nil {
		t.Error(err)
	}
	if _, err := PIMProfileByID("P9"); err != nil {
		t.Error(err)
	}
}

func TestKernelLists(t *testing.T) {
	if got := AllGPUKernels(); len(got) != 20 || got[0] != "G1" {
		t.Errorf("AllGPUKernels: %v", got)
	}
	if got := AllPIMKernels(); len(got) != 9 || got[8] != "P9" {
		t.Errorf("AllPIMKernels: %v", got)
	}
	if len(DefaultGPUKernels()) == 0 || len(DefaultPIMKernels()) == 0 {
		t.Error("empty default kernel subsets")
	}
}

func TestProposedConfiguration(t *testing.T) {
	cfg := ScaledConfig()
	policy := Proposed(&cfg)
	if policy != "f3fs" || cfg.NoC.Mode != VC2 {
		t.Errorf("Proposed: policy %q mode %v", policy, cfg.NoC.Mode)
	}
}

func TestEndToEndThroughFacade(t *testing.T) {
	cfg := ScaledConfig()
	cfg.MaxGPUCycles = 2_000_000
	gpuProf, err := GPUProfileByID("G8")
	if err != nil {
		t.Fatal(err)
	}
	pimProf, err := PIMProfileByID("P1")
	if err != nil {
		t.Fatal(err)
	}
	gpuSMs, pimSMs := GPUAndPIMSMs(cfg)
	sys, err := NewSystem(cfg, Proposed(&cfg), []KernelDesc{
		{GPU: &gpuProf, SMs: gpuSMs, Scale: 0.2},
		{PIM: &pimProf, SMs: pimSMs, Scale: 0.2, Base: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Kernels {
		if !k.Finished {
			t.Errorf("kernel %s unfinished", k.Label)
		}
	}
	if _, err := sys.Run(); err == nil {
		t.Error("System must be single-use")
	}
}

// TestCustomPIMKernelCheckedAtBuild: a custom PIM kernel the PIM units
// would reject mid-run — a store before any entry is defined, an op kind
// they do not know — fails NewSystem with an error instead.
func TestCustomPIMKernelCheckedAtBuild(t *testing.T) {
	cfg := ScaledConfig()
	_, pimSMs := GPUAndPIMSMs(cfg)
	for name, segs := range map[string][]PIMSegment{
		"store first":     {{Op: PIMStoreOp, Ops: 8}, {Op: PIMLoadOp, Ops: 8}},
		"unknown op kind": {{Op: PIMLoadOp, Ops: 8}, {Op: PIMStoreOp + 1, Ops: 8}},
	} {
		prof := PIMProfile{Name: name, Segments: segs, Blocks: 4}
		if _, err := NewSystem(cfg, "f3fs", []KernelDesc{{PIM: &prof, SMs: pimSMs, Scale: 1}}); err == nil {
			t.Errorf("%s: NewSystem accepted the kernel", name)
		}
	}
}

// TestNewSystemRejectsUnknownPolicy: a policy name the registry does not
// know fails NewSystem with an error that names it, and a nil factory
// fails NewSystemWithFactory, instead of either panicking in construction.
func TestNewSystemRejectsUnknownPolicy(t *testing.T) {
	cfg := ScaledConfig()
	prof, err := GPUProfileByID("G8")
	if err != nil {
		t.Fatal(err)
	}
	descs := []KernelDesc{{GPU: &prof, SMs: []int{0, 1}, Scale: 0.1}}
	if _, err := NewSystem(cfg, "no-such-policy", descs); err == nil || !strings.Contains(err.Error(), `"no-such-policy"`) {
		t.Errorf("NewSystem with an unknown policy = %v, want an error naming it", err)
	}
	if _, err := NewSystemWithFactory(cfg, nil, descs); err == nil {
		t.Error("NewSystemWithFactory accepted a nil factory")
	}
}

func TestMetricHelpers(t *testing.T) {
	if got := FairnessIndex(0.5, 1.0); got != 0.5 {
		t.Errorf("FairnessIndex = %v", got)
	}
	if got := SystemThroughput(0.5, 1.0); got != 1.5 {
		t.Errorf("SystemThroughput = %v", got)
	}
}

func TestRunnerFacade(t *testing.T) {
	cfg := ScaledConfig()
	cfg.MaxGPUCycles = 2_000_000
	r := NewRunner(cfg, 0.15)
	pair, err := r.Competitive("G8", "P2", "f3fs", VC2)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Throughput <= 0 {
		t.Errorf("throughput %v", pair.Throughput)
	}
}

func TestLLMModelFacade(t *testing.T) {
	m := GPT3Like()
	if m.Batch != 128 {
		t.Errorf("batch %d", m.Batch)
	}
	cfg := ScaledConfig()
	qkv, mha := m.Scenario(cfg, 0.2)
	if qkv.GPU == nil || mha.PIM == nil {
		t.Error("scenario descriptors malformed")
	}
}

// TestTableRenderers: a registry figure renders through the facade, one
// row per result (Fig. 11 under f3fs: one per VC mode).
func TestTableRenderers(t *testing.T) {
	var fig11 Figure
	for _, f := range Figures() {
		if f.ID == "11" {
			fig11 = f
		}
	}
	cfg := ScaledConfig()
	cfg.MaxGPUCycles = 2_000_000
	out, err := fig11.Run(context.Background(), NewRunner(cfg, 0.05), nil, nil, []string{"f3fs"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "\nf3fs ") != 2 {
		t.Errorf("Fig. 11 lacks its f3fs rows:\n%s", out)
	}
}
