package sim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestResponseCalendarMatchesRingScan is the reference twin of the response
// calendar's occupancy bits: after every schedule and every delivery, bit i
// must be set exactly when ring slot i holds a response, and the distance
// tryJump reads from the bits (nextResponseIn) must be the one a slot-by-slot
// scan of the ring finds — over dense and sparse phases, every delay the
// ring admits, and many laps of respIdx, so that the next due slot is found
// in either word and on either side of the wrap.
func TestResponseCalendarMatchesRingScan(t *testing.T) {
	cfg := testCfg()
	s, err := New(cfg, core.Factory("fr-fcfs", cfg.Sched), []KernelDesc{gpuDesc(t, "G8", SomeSMs(cfg, cfg.GPU.NumSMs), 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.respRing)
	if n <= 64 {
		t.Fatalf("a ring of %d slots fits one word of bits; the test needs two", n)
	}
	rng := rand.New(rand.NewSource(5))
	var asked, wrapped, far int
	for step := 0; step < 60*n; step++ {
		// One response every cycle, every 16th or every 128th, by phase.
		if density := []int{1, 16, 128}[step/(4*n)%3]; rng.Intn(density) == 0 {
			r := s.pool.Get()
			r.Synthetic = true // delivered straight back to the pool
			s.scheduleResponse(r, 1+rng.Intn(n-1))
		}
		for i := 0; i < len(s.respDue)*64; i++ {
			bit := s.respDue[i>>6]&(1<<(i&63)) != 0
			if want := i < n && len(s.respRing[i]) > 0; bit != want {
				t.Fatalf("step %d: bit %d is %v, slot occupied %v", step, i, bit, want)
			}
		}
		if s.respCount > 0 && len(s.respRing[s.respIdx]) == 0 {
			want := 0
			for k := 1; k < n; k++ {
				if len(s.respRing[(s.respIdx+k)%n]) > 0 {
					want = k
					break
				}
			}
			if got := s.nextResponseIn(); got != want {
				t.Fatalf("step %d, respIdx %d: next response in %d cycles, the ring scan says %d", step, s.respIdx, got, want)
			}
			asked++
			if s.respIdx+want >= n {
				wrapped++
			}
			if want > 64 {
				far++
			}
		}
		if s.respCount > 0 {
			s.deliverResponses()
		}
		s.respIdx = (s.respIdx + 1) % n
	}
	if asked == 0 || wrapped == 0 || far == 0 {
		t.Fatalf("vacuous run: %d distances asked, %d across the wrap, %d over 64 slots away", asked, wrapped, far)
	}
}
