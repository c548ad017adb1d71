package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestJournalLinePinned pins a campaign journal's record: a journal
// written before a refactor of Pair must resume, so a finished pair is
// journaled as exactly this line, and this line decodes back to the
// pair it was written from.
func TestJournalLinePinned(t *testing.T) {
	cfg := config.Scaled()
	pair := Pair{GPUID: "G8", PIMID: "P1", Policy: "f3fs", Mode: config.VC2,
		GPUSpeedup: 0.5, PIMSpeedup: 0.25, Fairness: 0.5, Throughput: 0.75, MemArrivalNorm: 0.125,
		Switches: 42, ConflictsPerSwitch: 1.5, DrainPerSwitch: 12, AvgMemQ: 3.25, AvgPIMQ: 60.5, Aborted: true,
		Manifest: &telemetry.Manifest{Schema: "pimsim-manifest/v1", ConfigHash: "abc", Seed: 1, Policy: "f3fs",
			VCMode: "VC2", Scale: 0.25, Kernels: []string{"G8", "P1"}, Channels: 8, SMs: 20, GPUCycles: 1000, DRAMCycles: 800},
		Faults: &faults.Counts{DRAMRetries: 3, DRAMRetryCycles: 36},
	}
	const line = `{"key":"G8_P1_f3fs_VC2","status":"done","pair":{"GPUID":"G8","PIMID":"P1","Policy":"f3fs","Mode":1,` +
		`"GPUSpeedup":0.5,"PIMSpeedup":0.25,"Fairness":0.5,"Throughput":0.75,"MemArrivalNorm":0.125,"Switches":42,` +
		`"ConflictsPerSwitch":1.5,"DrainPerSwitch":12,"AvgMemQ":3.25,"AvgPIMQ":60.5,"Aborted":true,` +
		`"Manifest":{"schema":"pimsim-manifest/v1","config_hash":"abc","seed":1,"policy":"f3fs","vc_mode":"VC2","scale":0.25,` +
		`"kernels":["G8","P1"],"channels":8,"sms":20,"git_describe":"","go_version":"","os":"","arch":"","start_time":"",` +
		`"wall_time_ms":0,"gpu_cycles":1000,"dram_cycles":800,"aborted":false,"peak_goroutines":0,"heap_alloc_bytes":0,` +
		`"total_alloc_bytes":0,"num_gc":0},` +
		`"Faults":{"dram_retries":3,"dram_retry_cycles":36,"noc_link_stalls":0,"noc_link_stall_cycles":0,"throttled_cycles":0}}}`

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	key := PairKey(pair.GPUID, pair.PIMID, pair.Policy, pair.Mode)
	if err := j.RecordDone(key, pair); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, got, _ := strings.Cut(string(data), "\n")
	if got = strings.TrimSuffix(got, "\n"); got != line {
		t.Errorf("journaled as\n%s\nwant\n%s", got, line)
	}

	// The pinned line, under this campaign's header, resumes as the pair.
	if err := os.WriteFile(path, []byte(header+"\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err = OpenJournal(path, cfg, 0.25); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if back, ok := j.LookupDone(key); !ok || !reflect.DeepEqual(back, pair) {
		t.Errorf("the pinned line resumes as %+v (found %v), want %+v", back, ok, pair)
	}
}

// TestStudyBaselineCounts pins how many standalone simulations a study
// costs: each distinct configuration's baselines run once. The CAP
// points share the runner's set (they change scheduler knobs only), Fig.
// 14b has one set per queue size other than the default, and the dual
// study one per variant.
func TestStudyBaselineCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three studies at tiny scale")
	}
	for _, c := range []struct {
		fig  string
		want int
	}{{"cap", 4}, {"14b", 6}, {"dual", 4}} {
		r := tinyRunner(2)
		var mu sync.Mutex
		alone := 0
		r.Observe = func(what string, _ *sim.System) {
			if strings.HasPrefix(what, "standalone") {
				mu.Lock()
				alone++
				mu.Unlock()
			}
		}
		f, _ := FigureByID(c.fig)
		if _, err := f.tables(context.Background(), r, oneGPU, onePIM, []string{"f3fs"}); err != nil {
			t.Fatalf("%s: %v", c.fig, err)
		}
		if alone != c.want {
			t.Errorf("%s ran %d standalone simulations, want %d", c.fig, alone, c.want)
		}
	}
}
