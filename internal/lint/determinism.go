package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the paper's §4.1.2 lesson: simulation results
// must be bit-for-bit reproducible. In the deterministic packages it
// flags (a) map range loops whose bodies append to a slice that is not
// subsequently sorted, write directly into an output/hash stream, or
// call a RIB, clock or BDD factory method whose effect depends on call
// order, and (b) any use of time.Now/time.Since or math/rand.
// Test files are exempt (they are never loaded); the seeded harnesses
// in internal/faults and internal/netgen are outside the scope list by
// design.
type Determinism struct{}

// deterministicScope is the set of packages whose outputs feed
// fingerprints, dataplane artifacts, and user-visible diagnostics.
var deterministicScope = []string{
	"repro/internal/dataplane",
	"repro/internal/routing",
	"repro/internal/fib",
	"repro/internal/topo",
	"repro/internal/diag",
	"repro/internal/sweep",
	"repro/internal/cluster",
	"repro/internal/fwdgraph",
	"repro/internal/reach",
}

func (Determinism) Name() string { return "determinism" }

func (Determinism) Doc() string {
	return "order-dependent map iteration, time.Now, or math/rand in deterministic packages"
}

func (Determinism) Check(_ *Program, p *Package) []Finding {
	if !inScope(p.Path, deterministicScope) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		out = append(out, checkClockAndRand(p, f)...)
		funcBodies(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
			out = append(out, checkMapRanges(p, body)...)
		})
	}
	return out
}

// checkClockAndRand flags wall-clock reads and PRNG use.
func checkClockAndRand(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "time":
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				out = append(out, finding(p, "determinism", sel.Pos(),
					"wall-clock read time.%s in deterministic package %s (use logical clocks, §4.1.2)",
					sel.Sel.Name, p.Path))
			}
		case "math/rand", "math/rand/v2":
			out = append(out, finding(p, "determinism", sel.Pos(),
				"PRNG use rand.%s in deterministic package %s", sel.Sel.Name, p.Path))
		}
		return true
	})
	return out
}

// checkMapRanges flags map iteration whose order can leak into results:
// writes to an output/hash stream inside the loop, or appends into a
// slice that is never sorted afterwards in the same function.
func checkMapRanges(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	walkSkippingFuncLits(body, func(n ast.Node) {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		if t := p.Info.TypeOf(r.X); t == nil {
			return
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		// Sinks inside the loop body.
		walkSkippingFuncLits(r.Body, func(n ast.Node) {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(p.Info, call) || i >= len(v.Lhs) {
						continue
					}
					target := types.ExprString(v.Lhs[i])
					if !sortedAfter(p, body, r, target) {
						out = append(out, finding(p, "determinism", v.Pos(),
							"%s accumulates map iteration order and is not sorted afterwards", target))
					}
				}
			case *ast.CallExpr:
				if name, ok := isOrderedSink(p, v); ok {
					out = append(out, finding(p, "determinism", v.Pos(),
						"%s inside map range emits results in map iteration order", name))
				} else if name, ok := isClockedMutation(p, v); ok {
					out = append(out, finding(p, "determinism", v.Pos(),
						"%s inside map range orders RIB deltas and logical-clock draws by map iteration (§4.1.2); iterate sorted keys instead", name))
				} else if name, ok := isFactoryCall(p, v); ok {
					out = append(out, finding(p, "determinism", v.Pos(),
						"%s inside map range makes the shared BDD factory's nodes depend on map iteration order; iterate sorted keys instead", name))
				}
			}
		})
	})
	return out
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isOrderedSink reports whether the call feeds an order-sensitive
// stream: a Write*-family method on an io.Writer implementation
// (covers hash.Hash, strings.Builder, bytes.Buffer, files), or an
// fmt print function.
func isOrderedSink(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// fmt.Fprintf / fmt.Printf / fmt.Fprintln ... emit formatted output
	// (fmt.Sprintf and friends build values and are order-neutral).
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "fmt" &&
				(strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint")) {
				return "fmt." + sel.Sel.Name, true
			}
			return "", false // other package-qualified calls are not write methods
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return "", false
	}
	recv := p.Info.TypeOf(sel.X)
	if recv == nil || !implementsIOWriter(recv) {
		return "", false
	}
	return types.ExprString(sel.X) + "." + sel.Sel.Name, true
}

// clockedMutators are methods whose call order is observable state: RIB
// mutations accumulate delta slices in call order and draw logical
// clocks (§4.1.2) that end up gob-encoded in persisted artifacts.
// Calling one inside a map range makes artifact bytes differ run to
// run — the VRF-map publish bug this check was written against.
var clockedMutators = map[string]map[string]bool{
	"RIB":   {"Merge": true, "Withdraw": true, "RemoveWhere": true},
	"Clock": {"Next": true},
}

// isClockedMutation reports whether the call is an order-sensitive
// mutation of a routing.RIB or routing.Clock.
func isClockedMutation(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, ok := p.Info.Selections[sel]; !ok {
		return "", false
	}
	pkgPath, name := namedType(p.Info.TypeOf(sel.X))
	if pkgPath != "repro/internal/routing" {
		return "", false
	}
	methods, ok := clockedMutators[name]
	if !ok || !methods[sel.Sel.Name] {
		return "", false
	}
	return "(routing." + name + ")." + sel.Sel.Name, true
}

// isFactoryCall reports whether the call is a method of bdd.Factory. Its
// results are canonical whatever the order, but the intermediate nodes an
// operation leaves in the hash-consed table are not: a union taken in map
// order makes every rebuild of the same answer on a shared factory grow it
// (the fwdgraph no-route union that did so on every edit).
func isFactoryCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if _, ok := p.Info.Selections[sel]; !ok {
		return "", false
	}
	if pkgPath, name := namedType(p.Info.TypeOf(sel.X)); pkgPath != "repro/internal/bdd" || name != "Factory" {
		return "", false
	}
	return "(*bdd.Factory)." + sel.Sel.Name, true
}

// ioWriter is a structurally-built io.Writer, so the check does not
// depend on the analyzed package importing io.
var ioWriter = types.NewInterfaceType([]*types.Func{
	types.NewFunc(0, nil, "Write", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(0, nil, "n", types.Typ[types.Int]),
			types.NewVar(0, nil, "err", types.Universe.Lookup("error").Type()),
		), false)),
}, nil)

func init() { ioWriter.Complete() }

func implementsIOWriter(t types.Type) bool {
	if types.Implements(t, ioWriter) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), ioWriter)
	}
	return false
}

// sortedAfter reports whether, somewhere after the range loop in the
// same function body, the accumulated slice is passed to a sort/slices
// call — the idiomatic collect-keys-then-sort pattern.
func sortedAfter(p *Package, body *ast.BlockStmt, r *ast.RangeStmt, target string) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
			for _, arg := range call.Args {
				if types.ExprString(arg) == target || types.ExprString(arg) == "&"+target {
					sorted = true
				}
			}
		}
		return true
	})
	return sorted
}

// walkSkippingFuncLits walks the AST below root, calling fn for every
// node but not descending into function literals: nested literals are
// analyzed as function bodies in their own right.
func walkSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		fn(n)
		return true
	})
}
