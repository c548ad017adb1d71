// Package cfglive checks configuration-field liveness: every exported
// field of the simulator's exported config structs must be read by code
// outside the declaring package, or be listed under
// lintcfg.ConfigExempt.
//
// A config knob nobody reads is worse than dead code: sweeps vary it,
// manifests hash it, experiment matrices fan out over it — and every
// run with every value produces identical results. The failure is
// silent and expensive, so the check is whole-program and static.
//
// A read is a field selection (cfg.Memory.MemQSize) in any analyzed
// package other than the declaring one. Composite-literal keys and
// assignment targets do not count: constructing or mutating a config is
// not consuming it. Reads inside the declaring package do not count
// either — validation and hashing touch every field by design and would
// make the check vacuous.
//
// The verdict is only issued when at least one package outside the
// config layer was analyzed; linting the config package alone proves
// nothing about its consumers.
package cfglive

import (
	"go/ast"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer requires every exported config field to be read by
// simulator code.
var Analyzer = &analysis.Analyzer{Name: "cfglive", Run: run}

func run(pass *analysis.Pass) {
	var fields []analysis.Field
	read := make(map[string]bool)
	sawConsumer := false
	for _, pkg := range pass.Pkgs {
		if pass.Cfg.Covers(lintcfg.ConfigPackages, pkg.Path) {
			// Reads inside the declaring package do not count.
			fields = append(fields, pkg.ExportedFields(pass.Fset)...)
			continue
		}
		sawConsumer = true
		for _, file := range pkg.Files {
			// Selector expressions used as assignment targets are
			// writes, not reads.
			assigned := typeutil.AssignTargets(file)
			ast.Inspect(file, func(node ast.Node) bool {
				if sel, ok := node.(*ast.SelectorExpr); ok && !assigned[sel] {
					if key, ok := typeutil.SelectedField(pkg.TypesInfo, sel); ok {
						read[key] = true
					}
				}
				return true
			})
		}
	}
	declared := make(map[string]bool)
	for _, f := range fields {
		declared[f.Owner+"."+f.Var.Name()] = true
	}
	for _, entry := range pass.Cfg[lintcfg.ConfigExempt] {
		if !declared[entry] {
			pass.Unresolved(lintcfg.ConfigExempt, entry, lintcfg.ConfigPackages)
		}
	}
	// Without a consumer package in the run, "unread" proves nothing.
	for _, f := range fields {
		if name := f.Owner + "." + f.Var.Name(); sawConsumer && !read[f.Key] && !pass.Cfg.Has(lintcfg.ConfigExempt, name) {
			pass.Reportf(f.Var.Pos(), "config field %s is never read outside its declaring package: "+
				"the knob does nothing; wire it up, remove it, or add %q to %s", name, name, lintcfg.ConfigExempt)
		}
	}
}
