// Package withtest is fodder for the driver's loader test: its clean
// production file and its in-package test file are one unit, and the
// finding lives in the test file.
package withtest

// Sum is order-insensitive: a commutative fold, not a finding.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
