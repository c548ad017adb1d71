// Package detflow is the flow-aware determinism analyzer, and the home
// of the suite's one table of nondeterminism sources (SourceOf).
//
// The table is read two ways. detclock bans a source *site* anywhere in
// the deterministic core (detmap does the same for map iteration
// order). detflow tracks source *values* — wall clock, unseeded global
// rand, map iteration order, goroutine-scheduling-dependent reads —
// through locals, struct fields, package variables and call returns
// (tools/pimlint/dataflow) across the wider lintcfg.DetflowPackages,
// and reports them only when they reach a determinism-critical sink:
// config digest inputs, result encoders, journal/store writes, or the
// telemetry counters that feed figure outputs (lintcfg.DetflowSinks).
//
// Two flows count as reaching a sink: the argument value itself
// carries a taint label, or the argument's static type contains a
// struct field that some covered code assigns tainted data to
// (containment) — passing a whole run manifest to a journal write is a
// finding even though the manifest pointer is a clean value.
//
// The escape hatch is //pimlint:nondet on the sink call's line or the
// line above, with a mandatory justification naming why the laundering
// point is audited (e.g. telemetry.Manifest wall-time fields are
// provenance, excluded from result digests). An annotated call is also
// pruned from the caller-visible summary, so wrappers around an
// audited sink do not re-report at every call site.
package detflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/dataflow"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer flags nondeterministic values flowing into
// determinism-critical sinks.
var Analyzer = &analysis.Analyzer{Name: "detflow", Marker: "nondet", Audited: true, Run: run}

// A Source is one way host or schedule state enters the program. The
// two columns are the two readings: Desc is what a value derived from
// it carries through detflow ("" when the call yields no value worth
// tracking), Steer is why, and what instead, for a site inside the
// deterministic core ("" when the site alone is tolerated there and
// only the flow is judged — the manifest's provenance reads).
type Source struct {
	Desc, Steer string
	// ViaArg marks a call that taints the object behind its first
	// argument instead of its result.
	ViaArg bool
}

const (
	noWallClock = "use cycle counts; wall-clock cost belongs in telemetry.Manifest"
	noSleep     = "simulated time never sleeps; model latency in cycles"
	noEnv       = "environment reads make runs host-dependent; add a Config field"
	noGlobRand  = "global math/rand is seeded per process, not per run; use the seeded splitmix64 streams (internal/faults) or a rand.New(rand.NewSource(seed)) owned by the run"
)

// sources is the table, by types.Func FullName. The package-level
// functions of math/rand (v1 and v2) are sources wholesale, see
// SourceOf.
var sources = map[string]*Source{
	"time.Now":             {Desc: "wall clock", Steer: noWallClock},
	"time.Since":           {Desc: "wall clock", Steer: noWallClock},
	"time.Until":           {Desc: "wall clock", Steer: noWallClock},
	"time.Sleep":           {Steer: noSleep},
	"time.After":           {Steer: noSleep},
	"time.Tick":            {Steer: noSleep},
	"os.Getenv":            {Desc: "environment read", Steer: noEnv},
	"os.LookupEnv":         {Desc: "environment read", Steer: noEnv},
	"os.Environ":           {Desc: "environment read", Steer: noEnv},
	"os.Hostname":          {Desc: "environment read"},
	"os.Getpid":            {Desc: "environment read"},
	"runtime.NumGoroutine": {Desc: "goroutine-scheduling-dependent read"},
	"runtime.NumCgoCall":   {Desc: "goroutine-scheduling-dependent read"},
	"runtime.ReadMemStats": {Desc: "runtime memory stats", ViaArg: true},
}

var globRand = &Source{Desc: "unseeded global rand", Steer: noGlobRand}

// seededRand are the math/rand names that build explicitly seeded
// generators; every other package-level function of those packages
// draws from the unseedable global stream. Methods (a Source's Int63)
// are seeded by construction.
var seededRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// SourceOf classifies fn as a nondeterminism source; nil when it is
// none.
func SourceOf(fn *types.Func) *Source {
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil && !seededRand[fn.Name()] {
		return globRand
	}
	return sources[fn.FullName()]
}

func run(pass *analysis.Pass) {
	cfg := dataflow.Config{
		Source: func(fn *types.Func, _ *ast.CallExpr, _ *types.Info) (string, bool) {
			if s := SourceOf(fn); s != nil {
				return s.Desc, s.ViaArg
			}
			return "", false // not a source
		},
		MapRange:   "map iteration order", // the one source that is a statement, not a call
		Sanitizers: []string{"sort.", "slices.Sort"},
		Sinks:      make(map[string]string),
		SkipCall:   pass.Covered,
	}
	for _, sink := range pass.Cfg[lintcfg.DetflowSinks] {
		cfg.Sinks[sink] = lintcfg.Short(sink)
		if pass.Funcs[sink] == nil {
			pass.Unresolved(lintcfg.DetflowSinks, sink, "")
		}
	}
	for _, h := range dataflow.Solve(pass.FuncsIn(lintcfg.DetflowPackages), cfg).Hits() {
		pass.Reportf(h.Pos, "nondeterministic value (%s) flows into determinism sink %s; make the input deterministic "+
			"or annotate the audited laundering point with //pimlint:nondet <justification>", strings.Join(h.Sources, "; "), h.Sink)
	}
}
