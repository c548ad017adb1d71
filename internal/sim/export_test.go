package sim

// useTickLoop switches a freshly built System to the every-cycle schedule
// of advance: every gate is held open, so each component ticks each cycle.
// That schedule is the oracle of the differential, fuzz, zero-alloc and
// 2x2 determinism tests and is reachable from nowhere else.
func (s *System) useTickLoop() { s.tickEngine = true }
