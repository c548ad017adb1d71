// Package nilhandle verifies the simulator's disabled-handle
// convention: every exported method of a registered nil-safe handle
// type (telemetry collectors, fault injectors, the campaign journal)
// must begin with a nil-receiver guard, so a run with the subsystem
// off can hold a nil handle and call through it freely.
//
// The registry is lintcfg.NilHandleTypes; a type is registered by its
// "importpath.TypeName". The accepted guard is a first statement of the
// form
//
//	if recv == nil { ... }
//
// (possibly `recv == nil || more`), whose then-branch leaves the
// function. Value-receiver exported methods on a registered type are
// also flagged: they dereference the nil pointer before the body runs,
// so no in-body guard can save them.
package nilhandle

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/pimlint/analysis"
	"repro/tools/pimlint/lintcfg"
)

// Analyzer requires nil-receiver guards on exported methods of
// registered handle types, test files included.
var Analyzer = &analysis.Analyzer{Name: "nilhandle", Run: run}

func run(pass *analysis.Pass) {
	for _, entry := range pass.Cfg[lintcfg.NilHandleTypes] {
		pkg := pass.Package(lintcfg.PackageOf(entry))
		if pkg == nil {
			continue
		}
		typeName := entry[len(pkg.Path)+1:]
		if _, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName); !ok {
			pass.Unresolved(lintcfg.NilHandleTypes, entry, "")
		}
		for _, file := range pkg.AllFiles() {
			ast.Inspect(file, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if ok && fd.Recv != nil && len(fd.Recv.List) == 1 && fd.Name.IsExported() {
					checkMethod(pass, fd, typeName)
				}
				return !ok // methods are top-level declarations
			})
		}
	}
}

func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, typeName string) {
	recv := fd.Recv.List[0]
	name, pointer := receiverType(recv.Type)
	switch {
	case name != typeName:
	case !pointer:
		pass.Reportf(fd.Pos(),
			"exported method %s.%s has a value receiver: calls on a nil *%s dereference before the body runs; use a pointer receiver with a nil guard",
			typeName, fd.Name.Name, typeName)
	case len(recv.Names) == 0 || recv.Names[0].Name == "_":
		pass.Reportf(fd.Pos(),
			"exported method %s.%s discards its receiver: name it and guard `if recv == nil` so nil handles stay safe",
			typeName, fd.Name.Name)
	case fd.Body != nil && !startsWithNilGuard(fd.Body, recv.Names[0].Name):
		pass.Reportf(fd.Pos(),
			"exported method %s.%s on nil-safe handle type %s must begin with `if %s == nil` (registered under %s)",
			typeName, fd.Name.Name, typeName, recv.Names[0].Name, lintcfg.NilHandleTypes)
	}
}

// receiverType unwraps a method receiver to its named type, reporting
// whether the receiver is a pointer. Generic receivers (IndexExpr)
// unwrap to their base name.
func receiverType(expr ast.Expr) (name string, pointer bool) {
	if star, ok := expr.(*ast.StarExpr); ok {
		name, _ = receiverType(star.X)
		return name, true
	}
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name, false
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	}
	return "", false
}

// startsWithNilGuard reports whether the first statement is an if whose
// condition checks the receiver against nil (alone or as the left arm
// of a || chain).
func startsWithNilGuard(body *ast.BlockStmt, recvName string) bool {
	if len(body.List) == 0 {
		return true // an empty body cannot dereference the receiver
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	return condChecksNil(ifStmt.Cond, recvName)
}

func condChecksNil(cond ast.Expr, recvName string) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LOR:
		return condChecksNil(bin.X, recvName) || condChecksNil(bin.Y, recvName)
	case token.EQL:
		return (isIdent(bin.X, recvName) && isNil(bin.Y)) ||
			(isIdent(bin.Y, recvName) && isNil(bin.X))
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
