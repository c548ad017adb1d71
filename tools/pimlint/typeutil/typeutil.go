// Package typeutil holds the go/types and go/ast helpers the pimlint
// analyzers share, each stated once.
//
// Its main job is identity across the driver's package boundary: each
// target package is typechecked from source while its dependencies load
// from compiler export data, so one struct field is represented by
// distinct *types.Var objects in different packages' type information.
// The analyzers therefore key fields by a stable string —
// "pkgpath.TypeName.FieldName" — built here, and functions by their
// types.Func FullName.
package typeutil

import (
	"go/ast"
	"go/types"
)

// Deref returns the pointee type for pointers and t unchanged
// otherwise.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// FieldKey returns the stable "pkgpath.TypeName.FieldName" key for a
// field selection, resolving promoted fields to the struct that
// actually declares them. ok is false for non-field selections and for
// fields of unnamed struct types.
func FieldKey(s *types.Selection) (string, bool) {
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return "", false
	}
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := Deref(t).Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		t = st.Field(i).Type()
	}
	return NamedFieldKey(t, v.Name())
}

// SelectedField returns the key of the struct field sel selects, when
// it selects one.
func SelectedField(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	return FieldKey(s)
}

// NamedFieldKey builds the stable key for fieldName of the named struct
// type t (pointers are dereferenced). ok is false when t is not a named
// type with a package.
func NamedFieldKey(t types.Type, fieldName string) (string, bool) {
	named, ok := Deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fieldName, true
}

// PkgVarKey returns the stable "pkgpath.name" identity of a
// package-level variable.
func PkgVarKey(v *types.Var) (string, bool) {
	if v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return v.Pkg().Path() + "." + v.Name(), true
}

// AssignTargets returns the expressions a file assigns to: a selector
// among them is a write, not a read.
func AssignTargets(file *ast.File) map[ast.Expr]bool {
	assigned := make(map[ast.Expr]bool)
	ast.Inspect(file, func(node ast.Node) bool {
		if asg, ok := node.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				assigned[ast.Unparen(lhs)] = true
			}
		}
		return true
	})
	return assigned
}

// Params returns the objects of decl's parameters in flattened
// signature order; unnamed and blank parameters hold their slot as nil.
func Params(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, f := range decl.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
		}
		for _, n := range f.Names {
			out = append(out, info.Defs[n])
		}
	}
	return out
}

// NarrowInt reports whether call is a conversion T(x) to an integer
// type that is not guaranteed 64 bits wide, returning T. int and uint
// count as narrow: the spec only guarantees them 32 bits, and cycle
// arithmetic must not depend on the host word size.
func NarrowInt(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return nil, false
	}
	return tv.Type, IsInt(tv.Type) && !Is64Bit(tv.Type)
}

// IsInt reports whether t's underlying type is an integer.
func IsInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// Is64Bit reports whether t is an integer guaranteed 64 bits wide on
// every platform.
func Is64Bit(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Int64 || b.Kind() == types.Uint64)
}

// IsError reports whether t is the predeclared error type.
func IsError(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// SameExpr compares two expressions structurally for the identifier,
// selector and index shapes the fold and self-append patterns use.
func SameExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && SameExpr(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && SameExpr(x.X, y.X) && SameExpr(x.Index, y.Index)
	}
	return false
}
