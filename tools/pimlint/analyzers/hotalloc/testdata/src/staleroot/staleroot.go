// Package staleroot is hotalloc fodder for a configured root that
// resolves to nothing: the test's hotpath_roots still names
// Engine.Step, which this package has renamed to Tick. The package is
// loaded, so the stale entry is a finding — not a silent "nothing is
// hot" — and Tick's allocation goes unreported only because of it.
package staleroot // want `hotpath_roots entry "\(\*staleroot\.Engine\)\.Step" resolves to nothing`

type Engine struct{ buf []int }

func (e *Engine) Tick() { e.buf = make([]int, 8) }
