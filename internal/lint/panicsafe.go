package lint

import (
	"go/ast"
	"go/types"
)

// PanicSafe enforces the PR-3/PR-4 containment contract in the
// long-running layers: a panic on a worker goroutine must become a
// diagnostic, never a process crash. It flags `go func(){...}()`
// literals in internal/server and internal/pipeline whose bodies
// neither call recover (typically in a deferred closure) nor route the
// work through the established isolation helper diag.Capture.
// Goroutines launched on named functions are out of scope — the named
// function's own definition site is where containment belongs.
type PanicSafe struct{}

// isolationHelpers maps package path → function names that are known
// to contain panics on behalf of their caller.
var isolationHelpers = map[string]map[string]bool{
	"repro/internal/diag": {"Capture": true},
}

func (PanicSafe) Name() string { return "panic-safe" }

func (PanicSafe) Doc() string {
	return "goroutine literals in server/pipeline without recover or diag.Capture"
}

// Check reads goroutine-spawn sites off the shared summaries: every
// GoStmt in the package (at any nesting depth) is a goSite in some
// body's facts, so iterating all bodies covers the same set the old
// per-file walk did.
func (PanicSafe) Check(prog *Program, p *Package) []Finding {
	if !inScope(p.Path, serviceScope) {
		return nil
	}
	var out []Finding
	prog.factsIn(p, func(facts *bodyFacts) {
		for _, g := range facts.gos {
			if g.lit == nil {
				continue
			}
			if !recoversOrIsolates(p, g.lit.Body) {
				out = append(out, finding(p, "panic-safe", g.pos,
					"goroutine literal has no recover and does not use diag.Capture; a panic here kills the process"))
			}
		}
	})
	return out
}

// recoversOrIsolates reports whether the goroutine body (including its
// nested literals, e.g. `defer func(){ recover() }()`) calls the
// recover builtin or an allowlisted isolation helper.
func recoversOrIsolates(p *Package, body *ast.BlockStmt) bool {
	safe := false
	ast.Inspect(body, func(n ast.Node) bool {
		if safe {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "recover" {
				safe = true
			}
		case *ast.SelectorExpr:
			if obj := p.Info.Uses[fun.Sel]; obj != nil {
				if names, ok := isolationHelpers[pkgPathOf(obj)]; ok && names[obj.Name()] {
					safe = true
				}
			}
		}
		return true
	})
	return safe
}
