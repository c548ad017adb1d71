// Package cyclesafe enforces 64-bit discipline on cycle values inside
// the deterministic simulator packages.
//
// Cycle counts are unbounded monotonic quantities: a long campaign run
// exceeds 2^32 DRAM cycles in minutes, so a counter, timestamp or
// cycle field declared with a narrower integer — or a narrowing
// conversion applied to one — truncates silently and corrupts every
// statistic derived from it. A cycle value is anything named like one
// (the name ends in "cycle"/"cycles", or is one of the conventional
// timestamp names: now, tick, doneAt, drainStart) and the result of a
// NextEvent call — the event engine's wake-time oracle, which jumps the
// global clock to the minimum of the components' returned cycles and
// would jump backwards or sleep forever on a wrapped one. The analyzer
// flags
//
//   - declarations (struct fields, vars, parameters, results) whose
//     name is cycle-like but whose type is not a 64-bit integer;
//   - any NextEvent declaration (method, function, or interface
//     method) that is not `NextEvent(now uint64) uint64`;
//   - explicit conversions to a narrower integer type of a 64-bit
//     expression mentioning a cycle-like identifier, or of any
//     expression mentioning a NextEvent call.
//
// Bounded durations that are merely *denominated* in cycles (a config
// field holding "extra cycles per retry") may be exempted by name under
// lintcfg.CycleExempt.
package cyclesafe

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
	"repro/tools/pimlint/typeutil"
)

// Analyzer requires 64-bit integers for cycle values and forbids
// narrowing them.
var Analyzer = &analysis.Analyzer{Name: "cyclesafe", Run: run}

var cycleSuffix = regexp.MustCompile(`(?i)cycles?$`)

// timestampNames are the conventional cycle-timestamp identifiers used
// across the simulator's hot paths.
var timestampNames = map[string]bool{"now": true, "tick": true, "doneAt": true, "drainStart": true}

const wakeOracle = "NextEvent"

type checker struct {
	*analysis.Pass
	declared map[string]bool // every declared name, to tell a stale CycleExempt entry
}

func run(pass *analysis.Pass) {
	c := &checker{pass, make(map[string]bool)}
	pass.Inspect(lintcfg.DeterministicPackages, func(pkg *analysis.Package, n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncDecl:
			c.checkNames(pkg, []*ast.Ident{node.Name}, nil)
		case *ast.Field:
			c.checkNames(pkg, node.Names, node.Type)
		case *ast.ValueSpec:
			c.checkNames(pkg, node.Names, node.Type)
		case *ast.CallExpr:
			c.checkConversion(pkg, node)
		}
		return true
	})
	for _, name := range pass.Cfg[lintcfg.CycleExempt] {
		if !c.declared[name] {
			pass.Unresolved(lintcfg.CycleExempt, name, lintcfg.DeterministicPackages)
		}
	}
}

// cycleName reports whether name denotes a cycle value that no
// exemption covers.
func (c *checker) cycleName(name string) bool {
	return (cycleSuffix.MatchString(name) || timestampNames[name]) && !c.Cfg.Has(lintcfg.CycleExempt, name)
}

// checkNames flags cycle-named declarations with a non-64-bit integer
// type, and off-contract NextEvent declarations. Types are resolved
// through go/types so aliases and named types (`type cycles uint32`)
// are seen through.
func (c *checker) checkNames(pkg *analysis.Package, names []*ast.Ident, typeExpr ast.Expr) {
	for _, name := range names {
		c.declared[name.Name] = true
		if fn, ok := pkg.TypesInfo.Defs[name].(*types.Func); ok && name.Name == wakeOracle {
			c.checkSignature(name, fn.Type().(*types.Signature))
		}
	}
	if typeExpr == nil {
		return
	}
	t := pkg.TypesInfo.TypeOf(typeExpr)
	if t == nil || !typeutil.IsInt(t) || typeutil.Is64Bit(t) {
		return
	}
	for _, name := range names {
		if c.cycleName(name.Name) {
			c.Reportf(name.Pos(),
				"cycle counter %s declared %s: cycle/tick quantities must be uint64 or int64 (overflow within one long run); exempt bounded durations via %s",
				name.Name, t.String(), lintcfg.CycleExempt)
		}
	}
}

// checkSignature verifies the scheduler shape of a declared NextEvent:
// one uint64 result, uint64 now.
func (c *checker) checkSignature(name *ast.Ident, sig *types.Signature) {
	isUint64 := func(v *types.Var) bool {
		b, ok := v.Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Uint64
	}
	if res := sig.Results(); res.Len() != 1 {
		c.Reportf(name.Pos(),
			"NextEvent must return exactly one uint64 cycle, got %d results: the event engine takes the minimum over plain cycle values",
			res.Len())
	} else if !isUint64(res.At(0)) {
		c.Reportf(name.Pos(),
			"NextEvent must return uint64, got %s: a narrower cycle wraps within one long campaign and corrupts the jump target",
			res.At(0).Type().String())
	}
	if params := sig.Params(); params.Len() >= 1 && !isUint64(params.At(0)) {
		c.Reportf(name.Pos(), "NextEvent must take the current cycle as uint64, got %s", params.At(0).Type().String())
	}
}

// checkConversion flags T(expr) where T is an integer type narrower
// than 64 bits and expr is a cycle value.
func (c *checker) checkConversion(pkg *analysis.Package, call *ast.CallExpr) {
	target, ok := typeutil.NarrowInt(pkg.TypesInfo, call)
	if !ok {
		return
	}
	// The first cycle vocabulary the operand mentions: a NextEvent
	// call, or a non-exempt cycle-like identifier.
	var oracle bool
	var ident string
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch f := x.Fun.(type) {
			case *ast.Ident:
				oracle = oracle || f.Name == wakeOracle
			case *ast.SelectorExpr:
				oracle = oracle || f.Sel.Name == wakeOracle
			}
		case *ast.Ident:
			if ident == "" && c.cycleName(x.Name) {
				ident = x.Name
			}
		}
		return true
	})
	argType := pkg.TypesInfo.TypeOf(call.Args[0])
	switch {
	case oracle:
		c.Reportf(call.Pos(), "narrowing conversion %s(...) truncates a NextEvent cycle: keep event-time arithmetic in 64 bits", target.String())
	case ident != "" && argType != nil && typeutil.Is64Bit(argType):
		c.Reportf(call.Pos(), "narrowing conversion %s(...) truncates cycle value %s: keep cycle arithmetic in 64 bits", target.String(), ident)
	}
}
