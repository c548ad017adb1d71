package experiments

import (
	"context"
	"testing"

	"repro/internal/config"
)

// These tests pin the qualitative relations the paper's characterization
// establishes (Sec. IV) — the calibration targets of the synthetic
// workload profiles. They run a moderate number of simulations; -short
// skips them.

func TestFig4Relations(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization fidelity test skipped in -short mode")
	}
	r := quickRunner()
	c, err := r.Characterize(context.Background(), []string{"G4", "G6", "G11", "G15", "G17", "G19", "G10"}, []string{"P1", "P2", "P4"})
	if err != nil {
		t.Fatal(err)
	}
	groupAll, groupFew := c.Groups[0], c.Groups[1]
	box := c.table().value

	// (1) PIM kernels out-inject the same SM count running Rodinia
	// ("3.95x higher arrival rate into the interconnect than GPU-8").
	// The ratio is compressed on this substrate — the profile-driven SM
	// model sustains more memory-level parallelism per SM than
	// GPGPU-Sim's Rodinia kernels — so only the direction is pinned.
	pimNoC := box("PIM noc-rate", "median")
	fewNoC := box(groupFew+" noc-rate", "median")
	if pimNoC < 1.2*fewNoC {
		t.Errorf("PIM NoC rate %.1f not above GPU-few %.1f", pimNoC, fewNoC)
	}

	// (2) PIM requests bypass the L2, so at the memory controller PIM
	// outpaces even the full-GPU configuration ("2.07x GPU-80").
	pimMC := box("PIM mc-rate", "median")
	allMC := box(groupAll+" mc-rate", "median")
	if pimMC < allMC {
		t.Errorf("PIM MC rate %.1f below GPU-all %.1f (L2 filtering should invert this)", pimMC, allMC)
	}

	// (3) All-bank lockstep execution: PIM BLP pinned at the bank count
	// with "a single bar" (no spread).
	if v := box("PIM blp", "min"); v < 14 {
		t.Errorf("PIM BLP min %.1f, want ~16 across all PIM kernels", v)
	}

	// (4) PIM row locality is uniformly high (block structure).
	if v := box("PIM rbhr", "min"); v < 0.8 {
		t.Errorf("PIM locality min %.2f, want > 0.8", v)
	}

	// (5) Named extremes within the GPU-all group.
	per := c.PerKernel[groupAll]
	if per["G17"].RBHR <= per["G6"].RBHR {
		t.Errorf("G17 RBHR %.2f <= G6 %.2f (pathfinder should lead, gaussian trail)",
			per["G17"].RBHR, per["G6"].RBHR)
	}
	if per["G6"].BLP <= per["G10"].BLP {
		t.Errorf("G6 BLP %.2f <= G10 %.2f (gaussian is the BLP extreme)",
			per["G6"].BLP, per["G10"].BLP)
	}
	if per["G10"].MCRate >= per["G15"].MCRate {
		t.Errorf("compute-bound G10 MC rate %.1f >= nn's %.1f", per["G10"].MCRate, per["G15"].MCRate)
	}
	// (6) G19 is interconnect-heavy but L2-filtered: its NoC rate is
	// high while its DRAM rate drops well below it.
	if per["G19"].MCRate > 0.55*per["G19"].NoCRate {
		t.Errorf("G19 not L2-filtered: MC %.1f vs NoC %.1f", per["G19"].MCRate, per["G19"].NoCRate)
	}
}

// TestHeadlineProposalBeatsBaseline pins the paper's summary claim: the
// proposed system (VC2 + F3FS) improves both fairness and throughput over
// the single-VC interconnect with the fairest baseline (FR-RR-FCFS).
func TestHeadlineProposalBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("headline fidelity test skipped in -short mode")
	}
	r := quickRunner()
	var baseFI, baseST, propFI, propST []float64
	for _, g := range []string{"G8", "G17"} {
		for _, p := range []string{"P1", "P2"} {
			base, err := r.Competitive(g, p, "fr-rr-fcfs", config.VC1)
			if err != nil {
				t.Fatal(err)
			}
			prop, err := r.Competitive(g, p, "f3fs", config.VC2)
			if err != nil {
				t.Fatal(err)
			}
			baseFI = append(baseFI, base.Fairness)
			baseST = append(baseST, base.Throughput)
			propFI = append(propFI, prop.Fairness)
			propST = append(propST, prop.Throughput)
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(propFI) <= mean(baseFI) {
		t.Errorf("proposal fairness %.3f not above baseline %.3f", mean(propFI), mean(baseFI))
	}
	if mean(propST) <= mean(baseST) {
		t.Errorf("proposal throughput %.3f not above baseline %.3f", mean(propST), mean(baseST))
	}
}

func TestFig5CoRunRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run fidelity test skipped in -short mode")
	}
	r := quickRunner()
	c, err := r.coRun(context.Background(), []string{"G8", "G13", "G18"}, []string{"G15", "P1"})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(co string) float64 { return c.value(co, "avg speedup") }
	// Losing SMs alone costs something but not much.
	none := avg("none")
	if none >= 1.01 || none < 0.5 {
		t.Errorf("reduced-SM speedup %.2f out of plausible range", none)
	}
	// The PIM co-runner hurts the suite more than the worst GPU
	// co-runner (Fig. 5: 60% slowdown vs worst-case 30%).
	if avg("P1") >= avg("G15") {
		t.Errorf("PIM co-runner (%.3f) should hurt more than GPU co-runner (%.3f)",
			avg("P1"), avg("G15"))
	}
}

// TestITSAndWEISDevolveIntoStaticPriority reproduces the related-work
// claim of Sec. VIII: "ITS and WEIS … would devolve into MEM/PIM-First
// depending on their priority order". Under a saturating PIM co-runner,
// ITS's smaller-backlog preference tracks MEM-First and WEIS's
// attained-bandwidth preference tracks PIM-First.
func TestITSAndWEISDevolveIntoStaticPriority(t *testing.T) {
	if testing.Short() {
		t.Skip("devolution fidelity test skipped in -short mode")
	}
	r := quickRunner()
	get := func(policy string) Pair {
		p, err := r.Competitive("G8", "P1", policy, config.VC2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	its, memFirst := get("its"), get("mem-first")
	weis, pimFirst := get("weis"), get("pim-first")
	closeTo := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d < 0.15
	}
	if !closeTo(its.GPUSpeedup, memFirst.GPUSpeedup) || !closeTo(its.PIMSpeedup, memFirst.PIMSpeedup) {
		t.Errorf("ITS (%.2f/%.2f) did not devolve to MEM-First (%.2f/%.2f)",
			its.GPUSpeedup, its.PIMSpeedup, memFirst.GPUSpeedup, memFirst.PIMSpeedup)
	}
	if !closeTo(weis.GPUSpeedup, pimFirst.GPUSpeedup) || !closeTo(weis.PIMSpeedup, pimFirst.PIMSpeedup) {
		t.Errorf("WEIS (%.2f/%.2f) did not devolve to PIM-First (%.2f/%.2f)",
			weis.GPUSpeedup, weis.PIMSpeedup, pimFirst.GPUSpeedup, pimFirst.PIMSpeedup)
	}
}

func TestFig6VC2HelpsMemFirstMost(t *testing.T) {
	if testing.Short() {
		t.Skip("arrival-rate fidelity test skipped in -short mode")
	}
	r := quickRunner()
	sweep, err := r.RunSweep([]string{"G4", "G8", "G17"}, []string{"P1"},
		[]string{"mem-first", "fr-fcfs"}, []config.VCMode{config.VC1, config.VC2})
	if err != nil {
		t.Fatal(err)
	}
	tabs, err := sweep.arrivalRates()
	if err != nil {
		t.Fatal(err)
	}
	// Sec. V-A: VC2 unblocks MEM requests stalled behind PIM in the
	// shared interconnect; MEM-First recovers the most of its
	// standalone arrival rate ("its average degradation reducing from
	// 68% to 9%" — the best absolute recovery in Fig. 6b).
	avg := func(mode config.VCMode, policy string) float64 { return tabs[0].value(policy, mode.String()) }
	gainMemFirst := avg(config.VC2, "mem-first") / avg(config.VC1, "mem-first")
	gainFRFCFS := avg(config.VC2, "fr-fcfs") / avg(config.VC1, "fr-fcfs")
	if gainMemFirst <= 1.0 || gainFRFCFS <= 1.0 {
		t.Errorf("VC2 did not improve arrival rates: mem-first %.2f, fr-fcfs %.2f", gainMemFirst, gainFRFCFS)
	}
	if avg(config.VC2, "mem-first") <= avg(config.VC2, "fr-fcfs") {
		t.Errorf("MEM-First VC2 recovery %.3f not the highest (fr-fcfs %.3f)",
			avg(config.VC2, "mem-first"), avg(config.VC2, "fr-fcfs"))
	}
}

// TestFig14aAsymmetricCapsShiftServiceToMEM pins the last step of the
// Fig. 14a ablation: with the MEM CAP twice the PIM CAP (256/128), F3FS
// serves MEM more than under symmetric CAPs, so the GPU kernel's share
// of system throughput rises over the +current-mode-first stage.
func TestFig14aAsymmetricCapsShiftServiceToMEM(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation fidelity test skipped in -short mode")
	}
	tab, err := runStudy(quickRunner(), "14a")
	if err != nil {
		t.Fatal(err)
	}
	sym, asym := tab.value("+current-mode-first", "MEM-shr"), tab.value("+asymmetric-caps", "MEM-shr")
	if asym <= sym {
		t.Errorf("asymmetric CAPs (256/128) MEM share %.3f not above symmetric %.3f", asym, sym)
	}
}
