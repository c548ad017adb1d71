package bench

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox's speed drifts: for tens of seconds to minutes at a time the
// same pass runs a quarter slower, then recovers (neighbours contending for
// the memory system; arithmetic loops barely see it, code that misses the
// caches does). A run lasts seconds, so no statistic over its own passes
// can tell that drift from a regression. The benchmark therefore times a
// fixed probe of its own next to every cell and cold request, and reports
// host times scaled to what they would have been with the probe at its
// reference duration.
//
// The probe and the measured program leave each other alone. Its two
// buffers are mapped outside the Go heap, before the set-up, and it
// allocates nothing: it leaves no garbage, starts no collection, does not
// depend on the heap the program has built, and adds nothing to the live
// heap that paces the program's collections. A change to the simulator or
// the service cannot move it, and it does not move them.

// chaseRef and sweepRef are the two kernels' durations on the builder's
// sandbox in a quiet period, rounded. They only fix the scale of the
// normalised times; changing them, or the kernels, is a change to the
// benchmark.
const (
	chaseRef = 600 * time.Microsecond
	sweepRef = 450 * time.Microsecond
)

const (
	chaseSteps = 4096
	ringBytes  = 8 << 20 // 2 Mi indices of four bytes: far larger than the L2
	sweepBytes = 4 << 20
)

// hostMeter follows the probe through a run. A nil meter measures nothing
// and reports a slowness of 1: traced runs keep the probe out of their CPU
// profile.
type hostMeter struct {
	mem   []byte   // the mapping behind ring and sweep
	ring  []uint32 // indices: one random cycle through all of them
	at    uint32   // where the next chase starts
	sweep []uint64
	last  float64 // the latest probe

	Laps []float64 // slowness of every stretch, for the report
}

// newHostMeter maps the probe's buffers and takes the first probe.
func newHostMeter() (*hostMeter, error) {
	mem, err := syscall.Mmap(-1, 0, ringBytes+sweepBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: map the host probe's buffers: %w", err)
	}
	// The mapping is page-aligned, so both typed views are aligned.
	m := &hostMeter{
		mem:   mem,
		ring:  unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), ringBytes/4),
		sweep: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[ringBytes])), sweepBytes/8),
	}
	// Sattolo's shuffle leaves a permutation with a single cycle: following
	// ring[i] from any start visits every element once before it returns,
	// in an order no prefetcher can guess.
	for i := range m.ring {
		m.ring[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(7))
	for i := len(m.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		m.ring[i], m.ring[j] = m.ring[j], m.ring[i]
	}
	m.last = m.probe()
	return m, nil
}

// Close unmaps the buffers.
func (m *hostMeter) Close() {
	if m != nil {
		m.ring, m.sweep = nil, nil
		// Nothing useful to do if the kernel refuses to drop the mapping.
		_ = syscall.Munmap(m.mem)
	}
}

// chase follows chaseSteps dependent loads through the ring: memory
// latency.
func (m *hostMeter) chase() time.Duration {
	start := time.Now()
	p := m.at
	for i := 0; i < chaseSteps; i++ {
		p = m.ring[p]
	}
	m.at = p
	return time.Since(start)
}

// sweepOnce reads and writes the 4 MiB in order: memory bandwidth.
func (m *hostMeter) sweepOnce() time.Duration {
	start := time.Now()
	for i := range m.sweep {
		m.sweep[i] += uint64(i)
	}
	return time.Since(start)
}

// probe returns the host's momentary slowness: the mean of the two
// kernels' durations over their references (1 in the reference machine
// state, 1.25 when the host runs a quarter slower). Each kernel runs three
// times and its fastest counts, so a preemption does not pass for a slow
// host. Of the kernels tried while sizing — arithmetic, allocation, sweeps
// over 1, 4 and 16 MiB, this chase, and their pairs — neither of these two
// alone followed the pass times of the three simulator workloads through
// every kind of slow period, and their mean did.
func (m *hostMeter) probe() float64 {
	chase := min(m.chase(), m.chase(), m.chase())
	sweep := min(m.sweepOnce(), m.sweepOnce(), m.sweepOnce())
	return (float64(chase)/float64(chaseRef) + float64(sweep)/float64(sweepRef)) / 2
}

// lap probes again and returns the host's slowness over the stretch since
// the previous probe: the mean of the two probes around it. Divide a host
// time measured in the stretch by it.
func (m *hostMeter) lap() float64 {
	if m == nil {
		return 1
	}
	now := m.probe()
	slow := (m.last + now) / 2
	m.last = now
	m.Laps = append(m.Laps, slow)
	return slow
}
