package faults

import (
	"math/rand"
	"testing"
)

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "seed=7,dram=0.002:12,noc=0.001:24,throttle=40000:2000"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	want := Schedule{
		Seed:            7,
		DRAMRetryProb:   0.002,
		DRAMRetryCycles: 12,
		NoCStallProb:    0.001,
		NoCStallCycles:  24,
		ThrottlePeriod:  40000,
		ThrottleWindow:  2000,
	}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if !s.Active() {
		t.Fatal("schedule should be active")
	}
	back, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", s.String(), err)
	}
	if back != s {
		t.Fatalf("String round-trip lost data: %+v vs %+v", back, s)
	}
}

func TestParseScheduleEmptyAndErrors(t *testing.T) {
	s, err := ParseSchedule("")
	if err != nil || s.Active() {
		t.Fatalf("empty spec: got %+v, %v", s, err)
	}
	for _, bad := range []string{
		"dram=0.5",           // missing cycles
		"dram=2:4",           // prob > 1
		"dram=0.1:0",         // zero cycles
		"noc=-0.1:4",         // negative prob
		"throttle=100:100",   // window == period
		"throttle=0:10",      // window without period
		"bogus=1",            // unknown clause
		"seed",               // not key=value
		"throttle=abc:10",    // bad period
		"noc=0.1:whoops",     // bad cycles
		"dram=0.001:4,dram=", // malformed second clause
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
}

func TestZeroScheduleInactiveInjector(t *testing.T) {
	if in := NewInjector(Schedule{}, 8, 20); in != nil {
		t.Fatal("inactive schedule must yield a nil injector")
	}
	if in := NewInjector(Schedule{Seed: 42}, 8, 20); in != nil {
		t.Fatal("seed alone does not activate injection")
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	if d := in.CASDelay(0); d != 0 {
		t.Fatalf("nil CASDelay = %d", d)
	}
	if in.Throttled(3, 12345) {
		t.Fatal("nil Throttled = true")
	}
	in.ThrottledRange(3, 0, 12345)
	if at := in.NextUnthrottled(3, 12345); at != 12345 {
		t.Fatalf("nil NextUnthrottled = %d", at)
	}
	if vc := in.LinkTick(1, 2); vc != -1 {
		t.Fatalf("nil LinkTick = %d", vc)
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Fatalf("nil Counts = %+v", c)
	}
	if c := in.ChannelCounts(3); c != (Counts{}) {
		t.Fatalf("nil ChannelCounts = %+v", c)
	}
	if s := in.Schedule(); s.Active() {
		t.Fatalf("nil Schedule active: %+v", s)
	}
}

// drive pushes a fixed request pattern through an injector and returns
// the full observable fault trace.
func drive(in *Injector) (delays []uint64, throttled []bool, stalls []int8) {
	for i := 0; i < 5000; i++ {
		ch := i % 4
		delays = append(delays, in.CASDelay(ch))
		in.ThrottledRange(ch, uint64(i), uint64(i))
		throttled = append(throttled, in.Throttled(ch, uint64(i)))
		stalls = append(stalls, in.LinkTick(i%6, 2))
	}
	return
}

func TestInjectorDeterministic(t *testing.T) {
	s := Schedule{
		Seed:            99,
		DRAMRetryProb:   0.01,
		DRAMRetryCycles: 12,
		NoCStallProb:    0.005,
		NoCStallCycles:  8,
		ThrottlePeriod:  700,
		ThrottleWindow:  50,
	}
	a := NewInjector(s, 4, 6)
	b := NewInjector(s, 4, 6)
	da, ta, sa := drive(a)
	db, tb, sb := drive(b)
	for i := range da {
		if da[i] != db[i] || ta[i] != tb[i] || sa[i] != sb[i] {
			t.Fatalf("trace diverged at step %d", i)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	c := a.Counts()
	if c.DRAMRetries == 0 || c.NoCLinkStalls == 0 || c.ThrottledCycles == 0 {
		t.Fatalf("expected some of every fault class, got %+v", c)
	}
	if c.DRAMRetryCycles != c.DRAMRetries*uint64(s.DRAMRetryCycles) {
		t.Fatalf("retry cycle accounting off: %+v", c)
	}
	if c.NoCLinkStallCycles < c.NoCLinkStalls {
		t.Fatalf("stall cycle accounting off: %+v", c)
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	s := Schedule{DRAMRetryProb: 0.05, DRAMRetryCycles: 10}
	s2 := s
	s2.Seed = 1
	a, b := NewInjector(s, 4, 6), NewInjector(s2, 4, 6)
	da, _, _ := drive(a)
	db, _, _ := drive(b)
	same := true
	for i := range da {
		if da[i] != db[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical CAS traces")
	}
}

func TestLinkStallDuration(t *testing.T) {
	// Probability 1 stalls continuously: every call returns a stalled VC
	// and events only start at stream startup or right after one ends.
	s := Schedule{NoCStallProb: 1, NoCStallCycles: 3}
	in := NewInjector(s, 1, 1)
	for i := 0; i < 9; i++ {
		if vc := in.LinkTick(0, 2); vc < 0 {
			t.Fatalf("cycle %d not stalled under prob=1", i)
		}
	}
	c := in.Counts()
	if c.NoCLinkStalls != 3 || c.NoCLinkStallCycles != 9 {
		t.Fatalf("want 3 events over 9 cycles, got %+v", c)
	}
}

func TestThrottleWindowShape(t *testing.T) {
	s := Schedule{ThrottlePeriod: 100, ThrottleWindow: 10}
	in := NewInjector(s, 2, 0)
	per := [2]uint64{}
	for now := uint64(0); now < 1000; now++ {
		for ch := 0; ch < 2; ch++ {
			in.ThrottledRange(ch, now, now)
			if in.Throttled(ch, now) {
				per[ch]++
			}
		}
	}
	// Exactly window/period of the cycles throttle, per channel.
	for ch, n := range per {
		if n != 100 {
			t.Fatalf("channel %d throttled %d/1000 cycles, want 100", ch, n)
		}
	}
	if in.Counts().ThrottledCycles != 200 {
		t.Fatalf("total throttled = %d, want 200", in.Counts().ThrottledCycles)
	}
}

// TestInjectorTelemetryExport checks the per-channel counts the
// simulator publishes as mc<ch>/ecc_retries, ecc_retry_cycles and
// throttled_cycles: each event is charged to the channel it hit, so a
// channel nobody drives counts nothing, and the channels' shares add up
// to the totals.
func TestInjectorTelemetryExport(t *testing.T) {
	s := Schedule{
		Seed:            5,
		DRAMRetryProb:   0.05,
		DRAMRetryCycles: 7,
		NoCStallProb:    0.02,
		NoCStallCycles:  4,
		ThrottlePeriod:  300,
		ThrottleWindow:  30,
	}
	in := NewInjector(s, 5, 6)
	drive(in) // channels 0-3 only
	if c := in.ChannelCounts(4); c != (Counts{}) {
		t.Fatalf("undriven channel 4 counted %+v", c)
	}
	total := in.Counts()
	var sum Counts
	for ch := 0; ch < 4; ch++ {
		c := in.ChannelCounts(ch)
		if c.DRAMRetries == 0 || c.ThrottledCycles == 0 {
			t.Fatalf("channel %d counted no retries or throttling: %+v", ch, c)
		}
		if c.NoCLinkStalls != 0 || c.NoCLinkStallCycles != 0 {
			t.Fatalf("channel %d carries link stalls: %+v", ch, c)
		}
		sum.DRAMRetries += c.DRAMRetries
		sum.DRAMRetryCycles += c.DRAMRetryCycles
		sum.ThrottledCycles += c.ThrottledCycles
	}
	sum.NoCLinkStalls, sum.NoCLinkStallCycles = total.NoCLinkStalls, total.NoCLinkStallCycles
	if sum != total {
		t.Fatalf("channel counts sum to %+v, totals %+v", sum, total)
	}
}

// TestNextEventThrottledRangeCountsThrottled pins the closed form the
// controller's accounting rests on: ThrottledRange(ch, a, b) adds exactly
// #{t in [a,b] : Throttled(ch, t)} — counted here one cycle at a time —
// to the channel's throttle count and the fault totals, for random
// schedules, per-channel phases and ranges shorter than, equal to and
// spanning several periods; and NextUnthrottled names the first cycle at
// which a throttled channel is free again.
func TestNextEventThrottledRangeCountsThrottled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		period := uint64(2 + rng.Intn(400))
		s := Schedule{
			Seed:           rng.Int63(),
			ThrottlePeriod: period,
			ThrottleWindow: 1 + uint64(rng.Intn(int(period-1))),
		}
		const channels = 3
		in := NewInjector(s, channels, 0)
		var want [channels]uint64
		for q := 0; q < 20; q++ {
			ch := rng.Intn(channels)
			a := uint64(rng.Intn(5 * int(period)))
			var span uint64
			switch q % 4 {
			case 0:
				span = uint64(rng.Intn(int(period))) // within one period
			case 1:
				span = period - 1 // exactly one period
			case 2:
				span = uint64(rng.Intn(6 * int(period))) // several periods
			} // case 3: a single cycle, the form Tick uses
			b := a + span
			for c := a; c <= b; c++ {
				if in.Throttled(ch, c) {
					want[ch]++
				}
			}
			in.ThrottledRange(ch, a, b)
			in.ThrottledRange(ch, b+1, b) // empty range: no effect
			if got := in.ChannelCounts(ch).ThrottledCycles; got != want[ch] {
				t.Fatalf("schedule %v channel %d: after [%d,%d] counted %d throttled cycles, brute force %d",
					s, ch, a, b, got, want[ch])
			}

			free := in.NextUnthrottled(ch, a)
			for c := a; c < free; c++ {
				if !in.Throttled(ch, c) {
					t.Fatalf("schedule %v channel %d: NextUnthrottled(%d) = %d but cycle %d is already free", s, ch, a, free, c)
				}
			}
			if in.Throttled(ch, free) {
				t.Fatalf("schedule %v channel %d: NextUnthrottled(%d) = %d is throttled", s, ch, a, free)
			}
		}
		if got, sum := in.Counts().ThrottledCycles, want[0]+want[1]+want[2]; got != sum {
			t.Fatalf("schedule %v: total %d throttled cycles, brute force %d", s, got, sum)
		}
	}
}
