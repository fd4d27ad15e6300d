package lint

import (
	"go/ast"
	"go/types"
)

// pkgSel decomposes e as a qualified identifier pkg.Name and returns the
// imported package path and selected name. ok is false for method calls,
// field selections, and anything else that is not a package selector.
func pkgSel(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, okSel := e.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPN := info.Uses[id].(*types.PkgName)
	if !okPN {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// declaredWithin reports whether obj's declaration lies inside node's source
// span.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// isMapType reports whether the static type of e is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isFloat reports whether t's underlying type is a floating-point or
// complex basic type (the kinds whose addition is non-associative).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// objectOf resolves an identifier through either Uses or Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// inspectAll applies f to every node of every file in the pass.
func inspectAll(p *Pass, f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}
