package lint

import (
	"go/ast"
	"go/types"
)

// InternWrite enforces the §4.1.3 interning contract: a *BGPAttrs
// returned by routing.Pool.Attrs is the canonical shared copy — every
// route holding the same attribute combination aliases it. Writing
// through one mutates every aliased route and corrupts the pool's
// map key, so any field write or full-store through a *routing.BGPAttrs
// outside internal/routing is flagged. Building a BGPAttrs *value* and
// re-interning it (attrs := *r.Attrs; attrs.MED = 5; pool.Attrs(&attrs))
// is the sanctioned mutation path and is not flagged.
//
// ASPath and CommunitySet need no analyzer: their data lives behind
// unexported string fields, so the compiler already forbids mutation
// outside internal/routing.
type InternWrite struct{}

func (InternWrite) Name() string { return "intern-write" }

func (InternWrite) Doc() string {
	return "writes through interned *routing.BGPAttrs outside internal/routing"
}

// routingPkg is the only package allowed to write through interned
// pointers (it owns the pool).
const routingPkg = "repro/internal/routing"

func (InternWrite) Check(_ *Program, p *Package) []Finding {
	if p.Path == routingPkg {
		return nil
	}
	var out []Finding
	report := func(pos ast.Node, what string) {
		out = append(out, finding(p, "intern-write", pos.Pos(),
			"%s through interned *routing.BGPAttrs; interned attrs are shared and immutable — copy, modify, re-intern via Pool.Attrs",
			what))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if writesThroughAttrs(p, lhs) {
						report(v, "assignment")
					}
				}
			case *ast.IncDecStmt:
				if writesThroughAttrs(p, v.X) {
					report(v, "increment/decrement")
				}
			}
			return true
		})
	}
	return out
}

// writesThroughAttrs reports whether the lvalue expression dereferences
// a *routing.BGPAttrs: either a field selector on a pointer (a.MED) or
// an explicit dereference (*a, (*a).MED).
func writesThroughAttrs(p *Package, lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		x := ast.Unparen(v.X)
		if star, ok := x.(*ast.StarExpr); ok {
			return isBGPAttrsPtr(p.Info.TypeOf(star.X))
		}
		return isBGPAttrsPtr(p.Info.TypeOf(x))
	case *ast.StarExpr:
		return isBGPAttrsPtr(p.Info.TypeOf(v.X))
	}
	return false
}

// isBGPAttrsPtr reports whether t is *routing.BGPAttrs.
func isBGPAttrsPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := types.Unalias(t).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	pkgPath, name := namedType(ptr.Elem())
	return pkgPath == routingPkg && name == "BGPAttrs"
}
