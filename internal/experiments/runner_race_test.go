package experiments

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/telemetry"
)

// TestStandaloneSingleFlight hammers the baseline caches from many
// goroutines at once — the Parallel > 1 regime of `pim sweep`. Run
// under -race this is the proof that the single-flight cells are safe;
// the value checks prove every caller observes the one shared result.
func TestStandaloneSingleFlight(t *testing.T) {
	r := quickRunner()
	const callers = 8
	gpu := make([]Standalone, callers)
	pim := make([]Standalone, callers)
	errs := make([]error, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gpu[i], errs[2*i] = r.StandaloneGPUOn("G8", r.Cfg.GPU.NumSMs)
			pim[i], errs[2*i+1] = r.StandalonePIM("P2")
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < callers; i++ {
		if gpu[i] != gpu[0] {
			t.Fatalf("caller %d saw a different GPU baseline: %+v vs %+v", i, gpu[i], gpu[0])
		}
		if pim[i] != pim[0] {
			t.Fatalf("caller %d saw a different PIM baseline: %+v vs %+v", i, pim[i], pim[0])
		}
	}
	if gpu[0].Cycles == 0 || pim[0].Cycles == 0 {
		t.Fatalf("degenerate baselines: gpu %+v, pim %+v", gpu[0], pim[0])
	}
}

// TestCompetitiveTelemetryDir checks the sweep-side capture path: with
// the global switch on and TelemetryDir set, Competitive must leave one
// readable JSONL file per pair.
func TestCompetitiveTelemetryDir(t *testing.T) {
	telemetry.Enable(true)
	defer telemetry.Enable(false)
	r := quickRunner()
	r.TelemetryDir = t.TempDir()
	p, err := r.Competitive("G8", "P2", "f3fs", config.VC2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Telemetry == nil || p.Manifest == nil {
		t.Fatal("pair carries no telemetry despite the global switch")
	}
	path := filepath.Join(r.TelemetryDir, "G8_P2_f3fs_VC2.jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, metrics, samples, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Policy != "f3fs" || m.VCMode != "VC2" {
		t.Fatalf("manifest round-trip: %+v", m)
	}
	if len(metrics) == 0 || len(samples) == 0 {
		t.Fatalf("capture has %d metrics, %d samples", len(metrics), len(samples))
	}
}

// TestStudyCapturesDoNotCollide checks the study-side capture path: every
// point writes to a directory of its own, so the 5-point CAP study on 1x1
// kernels leaves 5x(1+1) captures — the pair and the LLM cell per point —
// whose manifests carry the five points' configurations.
func TestStudyCapturesDoNotCollide(t *testing.T) {
	telemetry.Enable(true)
	defer telemetry.Enable(false)
	r := tinyRunner(2)
	r.TelemetryDir = t.TempDir()
	f, _ := FigureByID("cap")
	if _, err := f.tables(context.Background(), r, oneGPU, onePIM, nil); err != nil {
		t.Fatal(err)
	}
	captures, hashes := 0, map[string]bool{}
	err := filepath.WalkDir(r.TelemetryDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		m, _, _, err := telemetry.ReadJSONL(f)
		if err != nil {
			return err
		}
		captures++
		hashes[m.ConfigHash] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if captures != 10 || len(hashes) != 5 {
		t.Fatalf("5-point CAP study left %d captures with %d config hashes, want 10 and 5", captures, len(hashes))
	}
}
