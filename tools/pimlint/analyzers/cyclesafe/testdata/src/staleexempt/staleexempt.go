// Package staleexempt is cyclesafe fodder for an exemption that
// resolves to nothing: cyclesafe_exempt names WarmupCycles, which no
// declaration in the deterministic packages carries any more.
package staleexempt // want `cyclesafe_exempt entry "WarmupCycles" resolves to nothing`

type stats struct {
	warmup uint64
}
