// Package leakcheck lets a test assert that an operation closes every
// file it opens, by counting this process's open file descriptors.
package leakcheck

import (
	"os"
	"runtime/debug"
	"testing"
)

// Files runs op and fails t when more descriptors are open after it than
// before. The garbage collector is held off meanwhile, so os.File's
// finalizer cannot close a leaked descriptor before it is counted. t is
// skipped where /proc/self/fd is absent. op must not run concurrently
// with other work that opens or closes files.
func Files(t testing.TB, op func()) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFiles(t)
	op()
	if after := openFiles(t); after > before {
		t.Errorf("%d file descriptors open after the operation, %d before: it leaked %d", after, before, after-before)
	}
}

// openFiles counts the entries of /proc/self/fd.
func openFiles(t testing.TB) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("leakcheck: cannot count open files: %v", err)
	}
	return len(fds)
}
