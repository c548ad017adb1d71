package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	pimsim "repro"
)

// TestDocsListEveryRegistryFigure keeps the two hand-readable figure
// lists honest against the registry: the -fig usage text (generated from
// it) and the package comment of main.go (checked line by line).
func TestDocsListEveryRegistryFigure(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	comment, _, _ := strings.Cut(string(src), "\npackage main")
	usage := figUsage()
	for _, f := range pimsim.Figures() {
		line := fmt.Sprintf("//\t%-14s %s\n", "-fig "+f.ID, f.Title)
		if !strings.Contains(comment, line) {
			t.Errorf("package comment lacks the line %q", line)
		}
		if !strings.Contains(usage, f.ID) || !strings.Contains(usage, f.Title) {
			t.Errorf("-fig usage text lacks figure %s", f.ID)
		}
	}
	if n := strings.Count(comment, "//\t-fig "); n != len(pimsim.Figures())+1 {
		t.Errorf("package comment lists %d -fig values, want the %d registry figures plus all", n, len(pimsim.Figures()))
	}
}
