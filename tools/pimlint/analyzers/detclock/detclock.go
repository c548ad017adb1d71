// Package detclock forbids wall-clock, global-randomness, environment
// and runtime-state reads inside the simulator's deterministic
// packages: any site of a detflow.SourceOf function with steering text
// is a finding there, whether or not its value goes anywhere.
//
// The simulation's only time base is the cycle counter and its only
// randomness the seeded splitmix64 streams; a wall-clock read in a
// model path, a global math/rand draw, or an environment branch all
// make two runs of the same (config, seed) diverge by host or
// schedule. Wall-clock bookkeeping belongs in the telemetry layer (the
// run manifest), and tunables belong in Config fields, where they are
// hashed into the run fingerprint. There is no escape hatch.
package detclock

import (
	"go/ast"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/analyzers/detflow"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer forbids nondeterminism sources in deterministic packages.
var Analyzer = &analysis.Analyzer{Name: "detclock", Run: run}

func run(pass *analysis.Pass) {
	pass.Inspect(lintcfg.DeterministicPackages, func(pkg *analysis.Package, n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if fn, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
				if src := detflow.SourceOf(fn); src != nil && src.Steer != "" {
					pass.Reportf(sel.Pos(), "%s in deterministic package %s: %s", fn.FullName(), pkg.Path, src.Steer)
				}
			}
		}
		return true
	})
}
