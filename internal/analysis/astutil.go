package analysis

import (
	"go/ast"
	"go/types"
)

// Callee resolves the function or method called by call, or nil when the
// callee is a builtin, a conversion, or an indirect call through a value.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether f is one of the named functions (or methods) of
// the package with the given name. Matching by package name rather than full
// import path lets analysistest stubs stand in for the real packages.
func IsPkgFunc(f *types.Func, pkgName string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Name() != pkgName {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// RootIdent unwraps selectors, index/slice expressions, parens, derefs and
// address-of down to the base identifier of expr ("s" for s.Union[i:j]), or
// nil when the expression is not rooted at an identifier.
func RootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun // s.Sides(n) is rooted at s
		default:
			return nil
		}
	}
}

// NamedType returns the named type of t after stripping one pointer level,
// or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
