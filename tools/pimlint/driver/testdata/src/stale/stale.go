// Package stale is fodder for the driver's stale-annotation check: one
// annotation names a marker a loaded analyzer reads, the other a marker
// that none does.
package stale

//pimlint:ordered — detmap reads this marker, so it is no finding
var A = 1

//pimlint:retired — no analyzer reads this marker
var B = 2
