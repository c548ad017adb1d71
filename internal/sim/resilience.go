package sim

// QueueSnapshot is one channel's controller state at the moment a run
// was interrupted or crashed — the per-channel core of the diagnostic
// bundle harnesses attach to structured run errors.
type QueueSnapshot struct {
	Channel   int    `json:"channel"`
	MemQ      int    `json:"memq"`
	PIMQ      int    `json:"pimq"`
	Mode      string `json:"mode"`
	Switching bool   `json:"switching"`
}

// Diagnostics reports the system's current position and queue state:
// the one account of where a run stopped. Harnesses call it after
// recovering a panic or observing a cancellation or timeout to build a
// *RunError, and after a starved (Aborted) run it shows the state the
// run gave up in; it is safe at any point of a run.
func (s *System) Diagnostics() (gpuCycle, dramCycle uint64, queues []QueueSnapshot) {
	queues = make([]QueueSnapshot, len(s.mcs))
	for ch, mc := range s.mcs {
		m, p := mc.QueueLens()
		queues[ch] = QueueSnapshot{
			Channel:   ch,
			MemQ:      m,
			PIMQ:      p,
			Mode:      mc.Mode().String(),
			Switching: mc.Switching(),
		}
	}
	return s.gpuCycle, s.dramCycle, queues
}
