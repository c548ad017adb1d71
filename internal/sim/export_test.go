package sim

// useTickLoop switches a freshly built System to the per-cycle reference
// loop (step), dropping the event core's wake-up state exactly as a
// tick-only build would never have allocated it. The tick loop is the
// oracle of the differential, fuzz, zero-alloc and 2x2 determinism tests
// and is reachable from nowhere else.
func (s *System) useTickLoop() {
	s.tickEngine = true
	s.kNext, s.mcNext, s.nocFaulty = nil, nil, false
}
