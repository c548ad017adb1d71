// Command pimlint is the repository's custom static-analysis suite:
// the static half of the "same (config, seed) means bit-identical
// results" contract, plus the nil-safe-handle, hot-path, liveness,
// concurrency and durability disciplines built around it.
//
// Analyzers (each documented in its package under
// tools/pimlint/analyzers, and in docs/DETERMINISM.md):
//
//	detmap     no range-over-map in deterministic packages
//	detclock   no nondeterminism source (wall clock, global rand, env,
//	           runtime state) there either
//	cyclesafe  cycle values — cycle/tick counters and NextEvent results
//	           — are 64-bit and never narrowed
//	nilhandle  exported methods on registered handle types start with
//	           a nil-receiver guard
//	hotalloc   no allocation-causing constructs reachable from the
//	           per-cycle hot-path roots
//	cfglive    exported config fields are read by simulator code
//	lockorder  no lock-order cycles or blocking operations under held
//	           locks in the concurrency packages
//	ctxflow    blocking channel operations reachable from the service
//	           worker roots are cancellable
//	goorphan   goroutines in service code are WaitGroup-tracked or
//	           annotated as detached, with a justification
//	atomicmix  fields accessed through sync/atomic are never also
//	           accessed plainly outside init
//	detflow    nondeterministic values must not flow into digest /
//	           journal / figure-telemetry sinks
//	lifecycle  files, timers, tickers, response bodies and cancel
//	           funcs created in service code are released on all paths
//	errsink    durability errors (fsync, Write, journal append) are
//	           never discarded outside audited best-effort sites
//
// Usage:
//
//	go run ./cmd/pimlint ./...            # from the repo root
//	go run ./cmd/pimlint -json ./...      # findings as JSON on stdout
//
// There is one mode: the named packages are loaded once, each together
// with its in-package test files, and every analyzer runs over that one
// program (tools/pimlint/driver). The first four analyzers check test
// files too; the rest index production code only. The configuration is
// the Go value lintcfg.Default. Exit status is 0 when clean, 1 when
// any analyzer reports a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/analyzers/atomicmix"
	"repro/tools/pimlint/analyzers/cfglive"
	"repro/tools/pimlint/analyzers/ctxflow"
	"repro/tools/pimlint/analyzers/cyclesafe"
	"repro/tools/pimlint/analyzers/detclock"
	"repro/tools/pimlint/analyzers/detflow"
	"repro/tools/pimlint/analyzers/detmap"
	"repro/tools/pimlint/analyzers/errsink"
	"repro/tools/pimlint/analyzers/goorphan"
	"repro/tools/pimlint/analyzers/hotalloc"
	"repro/tools/pimlint/analyzers/lifecycle"
	"repro/tools/pimlint/analyzers/lockorder"
	"repro/tools/pimlint/analyzers/nilhandle"
	"repro/tools/pimlint/driver"
	"repro/tools/pimlint/lintcfg"
)

var analyzers = []*analysis.Analyzer{
	detmap.Analyzer,
	detclock.Analyzer,
	cyclesafe.Analyzer,
	nilhandle.Analyzer,
	hotalloc.Analyzer,
	cfglive.Analyzer,
	lockorder.Analyzer,
	ctxflow.Analyzer,
	goorphan.Analyzer,
	atomicmix.Analyzer,
	detflow.Analyzer,
	lifecycle.Analyzer,
	errsink.Analyzer,
}

// lint loads the packages the patterns name and runs every analyzer
// over them under the repository's configuration.
func lint(patterns ...string) ([]driver.Finding, error) {
	prog, err := driver.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return driver.Run(prog, lintcfg.Default(), analyzers), nil
}

// jsonFinding is the machine-readable finding shape emitted by -json,
// consumed by the CI problem matcher and any editor integration.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout instead of text on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pimlint [-json] [packages]\n\n"+
			"Runs the pimlint analyzers over the named package patterns\n"+
			"(default ./...), test files of each package included.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimlint: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{f.Analyzer, f.Posn.Filename, f.Posn.Line, f.Posn.Column, f.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "pimlint: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "pimlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
