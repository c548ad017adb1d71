package withtest_test

import (
	"testing"

	"repro/tools/pimlint/driver/testdata/src/withtest"
)

// An external test package has its own import path, which no
// path-scoped list covers; the loader leaves it out, so this range is
// not a finding.
func TestExternal(t *testing.T) {
	for k := range map[string]int{"a": 1} {
		_ = withtest.Sum(map[string]int{k: 1})
	}
}
