package sim

import (
	"fmt"

	"repro/internal/telemetry"
)

// QueueSnapshot is one channel's controller state at the moment a run
// was interrupted, starved, or crashed — the per-channel core of the
// diagnostic bundle harnesses attach to structured run errors.
type QueueSnapshot struct {
	Channel   int    `json:"channel"`
	MemQ      int    `json:"memq"`
	PIMQ      int    `json:"pimq"`
	Mode      string `json:"mode"`
	Switching bool   `json:"switching"`
}

func (s *System) queueSnapshots() []QueueSnapshot {
	qs := make([]QueueSnapshot, len(s.mcs))
	for ch, mc := range s.mcs {
		m, p := mc.QueueLens()
		qs[ch] = QueueSnapshot{
			Channel:   ch,
			MemQ:      m,
			PIMQ:      p,
			Mode:      mc.Mode().String(),
			Switching: mc.Switching(),
		}
	}
	return qs
}

// Diagnostics reports the system's current position and queue state.
// Harnesses call it after recovering a panic or observing a timeout to
// build a *RunError; it is safe at any point of a run.
func (s *System) Diagnostics() (gpuCycle, dramCycle uint64, queues []QueueSnapshot) {
	return s.gpuCycle, s.dramCycle, s.queueSnapshots()
}

// ErrStarved reports that a run made no first-run progress for a whole
// detection window — the starvation/deadlock abort of Sec. VI's
// denial-of-service cases. It is attached to Result.Starved (the run
// still returns a Result with Aborted set, so fairness-0 data points
// stay analyzable) and embeds the final telemetry snapshot and queue
// state for post-mortems.
type ErrStarved struct {
	// GPUCycle is where the run aborted; LastProgress the last cycle any
	// unfinished kernel completed a request; Window the detection window.
	GPUCycle     uint64 `json:"gpu_cycle"`
	LastProgress uint64 `json:"last_progress"`
	Window       uint64 `json:"window"`
	// Queues is the per-channel controller state at abort.
	Queues []QueueSnapshot `json:"queues"`
	// Snapshot is the final telemetry sample, complete whether or not
	// telemetry was enabled.
	Snapshot telemetry.Snapshot `json:"snapshot"`
}

func (e *ErrStarved) Error() string {
	return fmt.Sprintf("sim: starved at GPU cycle %d (no progress since %d, window %d)",
		e.GPUCycle, e.LastProgress, e.Window)
}

// ErrInterrupted reports that RunContext stopped early because its
// context was cancelled or its deadline expired. Unwrap yields the
// context's error so callers can errors.Is against context.Canceled or
// context.DeadlineExceeded.
type ErrInterrupted struct {
	GPUCycle  uint64          `json:"gpu_cycle"`
	DRAMCycle uint64          `json:"dram_cycle"`
	Queues    []QueueSnapshot `json:"queues"`
	Err       error           `json:"-"`
}

func (e *ErrInterrupted) Error() string {
	return fmt.Sprintf("sim: interrupted at GPU cycle %d: %v", e.GPUCycle, e.Err)
}

func (e *ErrInterrupted) Unwrap() error { return e.Err }
