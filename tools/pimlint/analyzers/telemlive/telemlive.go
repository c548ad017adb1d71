// Package telemlive checks metric-handle liveness: every telemetry
// metric field must be both registered (wired to a Registry handle) and
// written (mutated by simulator code), in both directions.
//
// The telemetry layer's nil-safety convention makes metric bugs silent:
// a *Counter field that was never wired no-ops on every Inc and the run
// manifest reports a plausible-looking zero, and a field that is wired
// but never incremented exports a dead metric that dashboards chart as
// a flat line. Neither failure is visible at runtime, which is exactly
// what a whole-program static check is for.
//
// The analyzer tracks exported struct fields declared in the packages
// under lintcfg.TelemetryPackages whose type is *Counter, *Gauge or
// *Histogram from one of those packages. Across every analyzed package it records:
//
//   - registration: the field is assigned (a composite-literal value or
//     an assignment statement), wiring it to a registry handle;
//   - consumption: a mutating method — Inc, Add, Observe, Set — is
//     called on the field, or the field's handle is read by a package
//     outside the telemetry layer (the simulator's pattern: handles are
//     copied into subsystem-local fields at wiring time and mutated
//     through the copies, which a purely syntactic mutator check cannot
//     follow).
//
// After all packages are seen, fields missing either side are reported
// at their declaration. Both directions run only when at least one
// package outside the telemetry layer was analyzed; linting the
// telemetry package alone proves nothing about its consumers.
//
// Fields are keyed by "pkgpath.TypeName.FieldName" strings, not type
// objects: the declaring package is typechecked from source while its
// consumers see it through export data, so object identity does not
// survive the package boundary (see tools/pimlint/typeutil).
package telemlive

import (
	"go/ast"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer requires telemetry metric fields to be both registered and
// written.
var Analyzer = &analysis.Analyzer{Name: "telemlive", Run: run}

// mutators are the handle methods that count as writes.
var mutators = map[string]bool{"Inc": true, "Add": true, "Observe": true, "Set": true}

// handleNames are the tracked metric handle type names.
var handleNames = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func run(pass *analysis.Pass) {
	// handleField reports whether v's type is a pointer to one of the
	// tracked handle types declared in a telemetry package.
	handleField := func(v *types.Var) bool {
		ptr, ok := v.Type().(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		return ok && named.Obj().Pkg() != nil && handleNames[named.Obj().Name()] &&
			pass.Cfg.Covers(lintcfg.TelemetryPackages, named.Obj().Pkg().Path())
	}

	var fields []analysis.Field
	registered := make(map[string]bool)
	written := make(map[string]bool)
	sawConsumer := false
	for _, pkg := range pass.Pkgs {
		consumer := !pass.Cfg.Covers(lintcfg.TelemetryPackages, pkg.Path)
		if consumer {
			sawConsumer = true
		} else {
			for _, f := range pkg.ExportedFields(pass.Fset) {
				if handleField(f.Var) {
					fields = append(fields, f)
				}
			}
		}
		info := pkg.TypesInfo
		for _, file := range pkg.Files {
			// Selector expressions used as assignment targets are
			// registrations, not reads.
			assigned := typeutil.AssignTargets(file)
			ast.Inspect(file, func(node ast.Node) bool {
				switch x := node.(type) {
				case *ast.CompositeLit:
					recordLiteral(x, info, registered)
				case *ast.CallExpr:
					// field.Inc() / field.Add(n) / ... is a write. The method
					// selector's receiver expression is itself a field
					// selection when the call goes through a metrics struct.
					sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
					if !ok || !mutators[sel.Sel.Name] {
						return true
					}
					if s, ok := info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
						return true
					}
					if recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
						if key, ok := typeutil.SelectedField(info, recv); ok {
							written[key] = true
						}
					}
				case *ast.SelectorExpr:
					key, ok := typeutil.SelectedField(info, x)
					if !ok || !handleField(info.Selections[x].Obj().(*types.Var)) {
						return true
					}
					if assigned[x] {
						// x.Field = handle wires the metric.
						registered[key] = true
					} else if consumer {
						// The handle escapes into simulator code — the
						// copied-handle mutation pattern.
						written[key] = true
					}
				}
				return true
			})
		}
	}
	if !sawConsumer {
		// Only the telemetry layer itself was analyzed; its consumers
		// were out of scope, so absence of writes proves nothing.
		return
	}
	for _, f := range fields {
		switch name := f.Owner + "." + f.Var.Name(); {
		case !registered[f.Key]:
			pass.Reportf(f.Var.Pos(), "metric field %s is never registered: no registry handle is ever assigned, so every write no-ops on a nil receiver", name)
		case !written[f.Key]:
			pass.Reportf(f.Var.Pos(), "metric field %s is registered but never written or consumed by simulator code: it exports a dead metric", name)
		}
	}
}

// recordLiteral marks fields given non-nil values in a keyed struct
// literal as registered.
func recordLiteral(lit *ast.CompositeLit, info *types.Info, registered map[string]bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
			if vtv, ok := info.Types[kv.Value]; ok && vtv.IsNil() {
				continue // Field: nil wires nothing
			}
			if k, ok := typeutil.NamedFieldKey(tv.Type, v.Name()); ok {
				registered[k] = true
			}
		}
	}
}
