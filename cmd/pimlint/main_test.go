package main

import "testing"

// TestRepoLintClean puts the zero-finding state inside `go test ./...`:
// the whole module, loaded and analyzed exactly as `make lint` does it
// (same lint function as main, test files included), must produce no
// finding. It needs the go tool and a warm build cache (~2 s), so
// -short skips it.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	findings, err := lint("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
