package workload

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/config"
	"repro/internal/request"
)

func testMapper(t *testing.T) addrmap.Mapper {
	t.Helper()
	cfg := config.Scaled()
	g, err := addrmap.NewGeometry(cfg.Memory.Channels, cfg.Memory.Banks, cfg.Memory.Rows, cfg.Memory.Columns, cfg.Memory.AccessBytes())
	if err != nil {
		t.Fatal(err)
	}
	return addrmap.NewInterleaved(g)
}

func TestProfileTablesComplete(t *testing.T) {
	gs := GPUProfiles()
	if len(gs) != 20 {
		t.Fatalf("GPU profiles = %d, want 20 (Table II)", len(gs))
	}
	for i, p := range gs {
		want := "G" + itoa(i+1)
		if p.ID != want {
			t.Errorf("profile %d ID = %s, want %s", i, p.ID, want)
		}
		if p.Requests <= 0 || p.Interval <= 0 || p.Streams <= 0 {
			t.Errorf("%s: non-positive sizing %+v", p.ID, p)
		}
		if p.Locality < 0 || p.Locality > 1 || p.Reuse < 0 || p.Reuse > 1 || p.ReadFrac < 0 || p.ReadFrac > 1 {
			t.Errorf("%s: probability out of range", p.ID)
		}
	}
	ps := PIMProfiles()
	if len(ps) != 9 {
		t.Fatalf("PIM profiles = %d, want 9 (Table III)", len(ps))
	}
	for i, p := range ps {
		want := "P" + itoa(i+1)
		if p.ID != want {
			t.Errorf("profile %d ID = %s, want %s", i, p.ID, want)
		}
		if p.Blocks <= 0 || len(p.Segments) == 0 {
			t.Errorf("%s: empty shape", p.ID)
		}
		for _, seg := range p.Segments {
			if seg.Ops%8 != 0 {
				t.Errorf("%s: segment ops %d not a multiple of the 8-entry per-bank RF", p.ID, seg.Ops)
			}
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestProfileLookup(t *testing.T) {
	if p, err := GPUProfileByID("G6"); err != nil || p.Name != "gaussian" {
		t.Errorf("G6 lookup: %v %v", p.Name, err)
	}
	if p, err := GPUProfileByID("pathfinder"); err != nil || p.ID != "G17" {
		t.Errorf("name lookup: %v %v", p.ID, err)
	}
	if _, err := GPUProfileByID("G99"); err == nil {
		t.Error("unknown GPU ID accepted")
	}
	if p, err := PIMProfileByID("P4"); err != nil || p.Name != "stream-scale" {
		t.Errorf("P4 lookup: %v %v", p.Name, err)
	}
	if _, err := PIMProfileByID("nope"); err == nil {
		t.Error("unknown PIM ID accepted")
	}
}

func TestGPUGenProducesTotal(t *testing.T) {
	m := testMapper(t)
	p, _ := GPUProfileByID("G8")
	var ids uint64
	g := NewGPUGen(p, m, []int{0, 1, 2}, 0, 0, 1, 1.0, &ids)
	count := 0
	for slot := 0; slot < 3; slot++ {
		for g.Next(slot) != nil {
			count++
		}
	}
	if count != g.Total() {
		t.Errorf("generated %d, Total() = %d", count, g.Total())
	}
	if g.Total() != p.Requests {
		t.Errorf("Total = %d, want %d at scale 1", g.Total(), p.Requests)
	}
}

func TestGPUGenScaleAndDeterminism(t *testing.T) {
	m := testMapper(t)
	p, _ := GPUProfileByID("G3")
	var ids1, ids2 uint64
	a := NewGPUGen(p, m, []int{0}, 0, 0, 42, 0.1, &ids1)
	b := NewGPUGen(p, m, []int{0}, 0, 0, 42, 0.1, &ids2)
	if a.Total() != p.Requests/10 {
		t.Errorf("scaled total = %d, want %d", a.Total(), p.Requests/10)
	}
	for i := 0; i < a.Total(); i++ {
		ra, rb := a.Next(0), b.Next(0)
		if ra.Addr != rb.Addr || ra.Kind != rb.Kind {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestGPUGenResetReproduces(t *testing.T) {
	m := testMapper(t)
	p, _ := GPUProfileByID("G1")
	var ids uint64
	g := NewGPUGen(p, m, []int{0}, 0, 0, 7, 0.05, &ids)
	var first []uint64
	for r := g.Next(0); r != nil; r = g.Next(0) {
		first = append(first, r.Addr)
	}
	g.Reset(7)
	for i := 0; ; i++ {
		r := g.Next(0)
		if r == nil {
			if i != len(first) {
				t.Fatalf("reset run length %d != %d", i, len(first))
			}
			break
		}
		if r.Addr != first[i] {
			t.Fatalf("reset not reproducible at %d", i)
		}
	}
}

func TestGPUGenDecodedCoordinatesMatchMapper(t *testing.T) {
	m := testMapper(t)
	p, _ := GPUProfileByID("G15")
	var ids uint64
	g := NewGPUGen(p, m, []int{0}, 3, 0, 9, 0.02, &ids)
	for r := g.Next(0); r != nil; r = g.Next(0) {
		c := m.Decode(r.Addr)
		if r.Channel != c.Channel || r.Bank != c.Bank || r.Row != c.Row || r.Col != c.Col {
			t.Fatalf("decoded coords mismatch for %#x", r.Addr)
		}
		if r.App != 3 {
			t.Fatal("app ID not stamped")
		}
	}
}

func TestGPUGenRespectsBase(t *testing.T) {
	m := testMapper(t)
	p, _ := GPUProfileByID("G5")
	base := uint64(256 << 20)
	var ids uint64
	g := NewGPUGen(p, m, []int{0}, 0, base, 1, 0.02, &ids)
	for r := g.Next(0); r != nil; r = g.Next(0) {
		if r.Addr < base {
			t.Fatalf("address %#x below region base %#x", r.Addr, base)
		}
	}
}

func TestHighVsLowLocalityProfiles(t *testing.T) {
	m := testMapper(t)
	var ids uint64
	seqFrac := func(id string) float64 {
		p, _ := GPUProfileByID(id)
		p.Reuse = 0   // isolate the stream behavior
		p.Streams = 1 // single stream so emitted order is stream order
		g := NewGPUGen(p, m, []int{0}, 0, 0, 5, 0.1, &ids)
		var seq, tot int
		var last uint64
		haveLast := false
		for r := g.Next(0); r != nil; r = g.Next(0) {
			if haveLast {
				tot++
				if r.Addr == last+32 || r.Addr == last {
					seq++
				}
			}
			last = r.Addr
			haveLast = true
		}
		if tot == 0 {
			return 0
		}
		return float64(seq) / float64(tot)
	}
	hi := seqFrac("G17") // locality 0.96, 2 streams
	lo := seqFrac("G14") // locality 0.08
	if hi <= lo {
		t.Errorf("G17 sequential fraction %.3f <= G14 %.3f", hi, lo)
	}
}

func TestPIMGenBlockStructure(t *testing.T) {
	m := testMapper(t)
	p, _ := PIMProfileByID("P1")
	var ids uint64
	cfg := config.Scaled()
	g := NewPIMGen(p, m, []int{0, 1}, 4, cfg.PIM.RFPerBank(), 1, 0.02, &ids)
	// Per channel: ops arrive in block order; within a segment the row
	// is constant; RF entries cycle within the per-bank RF.
	perChannel := map[int][]*request.Request{}
	for slot := 0; slot < 2; slot++ {
		for r := g.Next(slot); r != nil; r = g.Next(slot) {
			if r.Kind != request.PIMOp || r.PIM == nil {
				t.Fatal("non-PIM request from PIMGen")
			}
			perChannel[r.Channel] = append(perChannel[r.Channel], r)
		}
	}
	if len(perChannel) != cfg.Memory.Channels {
		t.Fatalf("streams for %d channels, want %d", len(perChannel), cfg.Memory.Channels)
	}
	total := 0
	for ch, reqs := range perChannel {
		total += len(reqs)
		lastBlock := -1
		for i, r := range reqs {
			if r.PIM.Block < lastBlock {
				t.Fatalf("ch%d op %d: block went backwards", ch, i)
			}
			lastBlock = r.PIM.Block
			if r.PIM.RFEntry < 0 || r.PIM.RFEntry >= 8 {
				t.Fatalf("RF entry %d out of range", r.PIM.RFEntry)
			}
		}
		// P1 block = load x8 (row A), compute x8 (row B), store x8
		// (row C): 24 ops per block, 3 distinct rows.
		if len(reqs)%24 != 0 {
			t.Errorf("ch%d: %d ops not a multiple of 24", ch, len(reqs))
		}
		rows := map[uint32]bool{}
		for _, r := range reqs[:24] {
			rows[r.Row] = true
		}
		if len(rows) != 3 {
			t.Errorf("ch%d: first block touched %d rows, want 3", ch, len(rows))
		}
	}
	if total != g.Total() {
		t.Errorf("generated %d, Total() = %d", total, g.Total())
	}
}

func TestPIMGenWarpChannelMapping(t *testing.T) {
	m := testMapper(t)
	p, _ := PIMProfileByID("P2")
	var ids uint64
	g := NewPIMGen(p, m, []int{5, 9}, 4, 8, 1, 0.02, &ids)
	// Slot 0 (SM 5) owns channels 0-3, slot 1 (SM 9) owns 4-7.
	for i := 0; i < 100; i++ {
		r := g.Next(0)
		if r == nil {
			break
		}
		if r.Channel >= 4 {
			t.Fatalf("slot 0 emitted channel %d", r.Channel)
		}
		if r.SM != 5 {
			t.Fatalf("slot 0 stamped SM %d", r.SM)
		}
	}
}

func TestPIMGenRejectsBadWarpMapping(t *testing.T) {
	m := testMapper(t)
	p, _ := PIMProfileByID("P1")
	var ids uint64
	defer func() {
		if recover() == nil {
			t.Error("mismatched SMs x warps accepted")
		}
	}()
	NewPIMGen(p, m, []int{0}, 4, 8, 1, 1, &ids) // 4 warps != 8 channels
}

func TestPIMOpsPerBlock(t *testing.T) {
	p, _ := PIMProfileByID("P1")
	if p.OpsPerBlock() != 24 {
		t.Errorf("P1 ops/block = %d, want 24", p.OpsPerBlock())
	}
	p4, _ := PIMProfileByID("P4")
	if p4.OpsPerBlock() != 128 {
		t.Errorf("P4 ops/block = %d, want 128", p4.OpsPerBlock())
	}
}

// TestPIMLocalityOrdering pins the paper's observation that STREAM-Scale
// (P4) has the highest lockstep row locality: fewer row changes per op
// than any other PIM kernel.
func TestPIMLocalityOrdering(t *testing.T) {
	rowChangesPerOp := func(p PIMProfile) float64 {
		return float64(len(p.Segments)) / float64(p.OpsPerBlock())
	}
	p4, _ := PIMProfileByID("P4")
	best := rowChangesPerOp(p4)
	for _, p := range PIMProfiles() {
		if p.ID == "P4" {
			continue
		}
		if rowChangesPerOp(p) <= best {
			t.Errorf("%s row-change rate %.4f <= P4's %.4f", p.ID, rowChangesPerOp(p), best)
		}
	}
}

// TestPooledGeneratorsMatchUnpooled: drawing requests from a pool changes
// where they live, not what they say, and a relaunch (Reset) rewinds the
// generator in place instead of rebuilding its slots.
func TestPooledGeneratorsMatchUnpooled(t *testing.T) {
	m := testMapper(t)
	gprof, _ := GPUProfileByID("G8")
	pprof, _ := PIMProfileByID("P1")
	sms := []int{4, 5}
	build := func(pool *request.Pool) []Generator {
		var ids uint64
		g := NewGPUGen(gprof, m, sms, 0, 0, 7, 0.01, &ids)
		g.SetPool(pool)
		p := NewPIMGen(pprof, m, sms, m.Geometry().Channels/len(sms), 8, 1, 0.05, &ids)
		p.SetPool(pool)
		return []Generator{g, p}
	}
	pool := request.NewPool()
	plain, pooled := build(nil), build(pool)
	for gi := range plain {
		for _, seed := range []int64{7, 99} { // second pass: after Reset
			plain[gi].Reset(seed)
			pooled[gi].Reset(seed)
			for slot := range sms {
				for n := 0; ; n++ {
					a, b := plain[gi].Next(slot), pooled[gi].Next(slot)
					if a == nil || b == nil {
						if a != nil || b != nil {
							t.Fatalf("generator %d slot %d: streams end at different points", gi, slot)
						}
						break
					}
					// PIM points into the request itself: compare through it.
					ac, bc := *a, *b
					ac.PIM, bc.PIM = nil, nil
					if ac != bc || (a.PIM == nil) != (b.PIM == nil) || (a.PIM != nil && *a.PIM != *b.PIM) {
						t.Fatalf("generator %d slot %d request %d: pooled %v != unpooled %v", gi, slot, n, b, a)
					}
					pool.Put(b)
				}
			}
		}
	}
	if pool.Live() != 0 {
		t.Errorf("%d requests still out of the pool", pool.Live())
	}
	for gi, g := range pooled {
		if avg := testing.AllocsPerRun(20, func() {
			g.Reset(3)
			for r := g.Next(0); r != nil; r = g.Next(0) {
				pool.Put(r)
			}
		}); avg != 0 {
			t.Errorf("generator %d: relaunch + one slot's stream: %v allocs, want 0", gi, avg)
		}
	}
}
