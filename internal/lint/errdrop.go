package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags discarded errors from a must-check list: operations
// whose failure silently corrupts the coordination or artifact state
// the cluster depends on. The general errcheck problem is out of scope
// (and `_ =` is a legitimate idiom elsewhere in the tree); this check
// is a curated list of calls where dropping the error has already
// bitten or plausibly will:
//
//   - diskcache lease operations (AcquireLease, Renew, Release): a
//     dropped Release error leaves a lease file that every future
//     acquirer must wait out.
//   - gob Encoder.Encode: artifact serialization; a dropped encode
//     error ships a truncated artifact.
//   - http response Body.Close (non-deferred): a dropped close error
//     on the write path can mask a failed read.
//
// Discard forms: a bare ExprStmt, a GoStmt, or an assignment where
// every error-typed result position is the blank identifier. Deferred
// calls are exempt — `defer resp.Body.Close()` is the established
// idiom for read paths where close errors are uninteresting, and a
// deferred call has no way to return its error anyway.
type ErrDrop struct{}

func (ErrDrop) Name() string { return "err-drop" }

func (ErrDrop) Doc() string {
	return "discarded errors from the must-check list (lease ops, gob encode, Body.Close)"
}

// errDropRules is the must-check list, keyed by package path, then
// receiver type name ("" for package-level functions), then method
// name.
var errDropRules = map[string]map[string]map[string]bool{
	"repro/internal/diskcache": {
		"Cache": {"AcquireLease": true},
		"Lease": {"Renew": true, "Release": true},
	},
	"encoding/gob": {
		"Encoder": {"Encode": true},
	},
}

func (ErrDrop) Check(prog *Program, p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		funcBodies(f, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
			walkSkippingFuncLits(body, func(n ast.Node) {
				switch v := n.(type) {
				case *ast.ExprStmt:
					if call, ok := v.X.(*ast.CallExpr); ok {
						out = appendErrDrop(out, p, call, nil)
					}
				case *ast.GoStmt:
					out = appendErrDrop(out, p, v.Call, nil)
				case *ast.AssignStmt:
					if len(v.Rhs) == 1 {
						if call, ok := v.Rhs[0].(*ast.CallExpr); ok {
							out = appendErrDrop(out, p, call, v.Lhs)
						}
					}
				}
			})
		})
	}
	return out
}

// appendErrDrop reports the call if it is on the must-check list and
// its error results are all discarded. lhs is nil for statement-form
// calls (everything discarded) and the assignment targets otherwise.
func appendErrDrop(out []Finding, p *Package, call *ast.CallExpr, lhs []ast.Expr) []Finding {
	name, sig, ok := mustCheckCallee(p, call)
	if !ok {
		return out
	}
	errIdx := errorResultIndexes(sig)
	if len(errIdx) == 0 {
		return out
	}
	if lhs != nil {
		for _, i := range errIdx {
			if i >= len(lhs) {
				return out // single-value context; compiler rejects partial assigns
			}
			if id, isIdent := lhs[i].(*ast.Ident); !isIdent || id.Name != "_" {
				return out // at least one error result is bound
			}
		}
	}
	return append(out, finding(p, "err-drop", call.Pos(),
		"error from %s discarded (must-check: this failure corrupts coordination or artifact state)",
		name))
}

// mustCheckCallee resolves the call against the rule list, including
// the Body.Close special case (an interface method, so it has no
// static callee). It returns a display name and the callee signature.
func mustCheckCallee(p *Package, call *ast.CallExpr) (string, *types.Signature, bool) {
	// resp.Body.Close() on a *net/http.Response: Close is
	// io.Closer.Close through the Body field, dynamic dispatch, so it
	// must be matched structurally rather than via staticCallee.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
		if body, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && body.Sel.Name == "Body" {
			if pkgPath, tname := namedType(p.Info.TypeOf(body.X)); pkgPath == "net/http" && tname == "Response" {
				if sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature); ok {
					return "(net/http.Response).Body.Close", sig, true
				}
			}
		}
	}
	fn, _ := staticCallee(p, call)
	if fn == nil || fn.Pkg() == nil {
		return "", nil, false
	}
	byRecv, ok := errDropRules[fn.Pkg().Path()]
	if !ok {
		return "", nil, false
	}
	recvName := ""
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", nil, false
	}
	if sig.Recv() != nil {
		_, recvName = namedType(sig.Recv().Type())
	}
	names, ok := byRecv[recvName]
	if !ok || !names[fn.Name()] {
		return "", nil, false
	}
	name := fn.Pkg().Name() + "." + displayName(fn)
	return name, sig, true
}

// errorResultIndexes returns the result positions whose type is error.
func errorResultIndexes(sig *types.Signature) []int {
	var idx []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}
