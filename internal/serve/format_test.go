package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/faults"
)

// newOf allocates the value a pointer field points at, so a test can
// fill a result payload by field without naming its type.
func newOf[T any](*T) *T { return new(T) }

// TestResultBytesPinned pins the wire form of a result: a warm-loaded
// store serves these bytes to every client, so a refactor of the result
// types must leave them exactly as they are.
func TestResultBytesPinned(t *testing.T) {
	competitive := func(counts *faults.Counts) Result {
		res := Result{Digest: "d1", Kind: "competitive", GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC2", Scale: 0.25}
		res.Competitive = newOf(res.Competitive)
		m := res.Competitive
		m.GPUSpeedup, m.PIMSpeedup, m.Fairness, m.Throughput = 0.5, 0.25, 0.5, 0.75
		m.MemArrivalNorm, m.Switches, m.ConflictsPerSwitch, m.DrainPerSwitch = 0.125, 42, 1.5, 12
		m.AvgMemQ, m.AvgPIMQ, m.Aborted, m.Faults = 3.25, 60.5, true, counts
		return res
	}
	standalone := Result{Digest: "d2", Kind: "standalone-pim", PIM: "P1", Mode: "VC1", Scale: 1}
	standalone.Standalone = newOf(standalone.Standalone)
	s := standalone.Standalone
	s.Cycles, s.NoCRate, s.MCRate, s.BLP, s.RBHR = 5400, 1.5, 2.25, 3.5, 0.875

	for _, c := range []struct {
		name string
		res  Result
		want string
	}{
		{"competitive", competitive(nil), `{"digest":"d1","kind":"competitive","gpu":"G8","pim":"P1","policy":"f3fs","mode":"VC2","scale":0.25,` +
			`"competitive":{"gpu_speedup":0.5,"pim_speedup":0.25,"fairness":0.5,"throughput":0.75,"mem_arrival_norm":0.125,"switches":42,` +
			`"conflicts_per_switch":1.5,"drain_per_switch":12,"avg_memq":3.25,"avg_pimq":60.5,"aborted":true}}`},
		{"competitive with faults", competitive(&faults.Counts{DRAMRetries: 3, DRAMRetryCycles: 36, NoCLinkStalls: 2, NoCLinkStallCycles: 48, ThrottledCycles: 2000}),
			`{"digest":"d1","kind":"competitive","gpu":"G8","pim":"P1","policy":"f3fs","mode":"VC2","scale":0.25,` +
				`"competitive":{"gpu_speedup":0.5,"pim_speedup":0.25,"fairness":0.5,"throughput":0.75,"mem_arrival_norm":0.125,"switches":42,` +
				`"conflicts_per_switch":1.5,"drain_per_switch":12,"avg_memq":3.25,"avg_pimq":60.5,"aborted":true,` +
				`"faults":{"dram_retries":3,"dram_retry_cycles":36,"noc_link_stalls":2,"noc_link_stall_cycles":48,"throttled_cycles":2000}}}`},
		{"standalone", standalone, `{"digest":"d2","kind":"standalone-pim","pim":"P1","mode":"VC1","scale":1,` +
			`"standalone":{"cycles":5400,"noc_rate":1.5,"mc_rate":2.25,"blp":3.5,"rbhr":0.875}}`},
	} {
		got, err := json.Marshal(c.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s result encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// TestCanonicalDigestPinned pins one content address: a store written
// before a refactor must still be found under the same digests.
func TestCanonicalDigestPinned(t *testing.T) {
	req := Request{GPU: "g8", PIM: "P1", Policy: "F3FS", Mode: "vc2", Scale: 0.25, Seed: 7, MemCap: 64, Faults: "dram=0.002:12"}
	const want = "be80dce973989d723b75fc76160db9c375ab5e81768a4afc0d6119baae0a5fb7"
	if got := digestOf(t, req); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
