// Package lint implements gblint, the repo-invariant static analyzer
// suite (DESIGN.md §7). Each analyzer mechanizes an invariant the repo
// previously enforced only by convention and after-the-fact review:
//
//   - determinism:  no iteration-order-dependent output, time.Now, or
//     math/rand in the deterministic simulation packages (§4.1.2)
//   - lock-io:      no file I/O, net calls, channel sends, or calls
//     that reach I/O while a sync.Mutex/RWMutex is held (the PR-4
//     diskcache bug class)
//   - ctx-plumb:    exported functions that loop unboundedly or spawn
//     goroutines must accept a context.Context
//   - panic-safe:   goroutine literals in the long-running service and
//     pipeline must recover (directly or via diag.Capture)
//   - intern-write: interned *routing.BGPAttrs values are immutable
//     outside internal/routing (§4.1.3)
//
// The suite is stdlib-only: packages are discovered by walking
// directories, parsed with go/parser, and type-checked with go/types
// backed by go/importer's source importer for the standard library and
// a module-local importer for repro/... paths. It deliberately avoids
// golang.org/x/tools so the linter builds in the same hermetic
// environment as the code it gates.
//
// Findings can be suppressed with an inline or preceding-line comment:
//
//	//gblint:ignore <check> <reason>
//
// The reason is mandatory; a suppression without one is itself a
// finding (check "suppression"), so every exemption in the tree is
// self-documenting.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Check)
}

// Package is one loaded, parsed, and type-checked package, the unit an
// Analyzer operates on. Files holds non-test sources only: test files
// are exempt from every check (they are not part of the shipped
// invariant surface, and several legitimately use time.Now and
// math/rand for deadlines and seeded generation).
type Package struct {
	Path     string // import path, e.g. repro/internal/dataplane
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info
	Types    *types.Package
	TypeErrs []error
}

// Analyzer is one gblint check.
type Analyzer interface {
	// Name is the short identifier used in output, -checks, and
	// //gblint:ignore comments.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Check reports findings for one package. prog is the module-wide
	// view (call graph + per-function summaries) shared by every
	// analyzer in the run; intraprocedural checks may ignore it. Scope
	// filtering (which packages the check applies to) is the analyzer's
	// own job. Globally-computed findings (lock-order cycles) must be
	// attributed to the package owning the finding's file so each is
	// reported exactly once.
	Check(prog *Program, p *Package) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		LockIO{},
		CtxPlumb{},
		PanicSafe{},
		InternWrite{},
		LockOrder{},
		GoroutineLeak{},
		ErrDrop{},
	}
}

// Select returns the analyzers whose names appear in the comma-separated
// list, or All() when the list is empty.
func Select(list string) ([]Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	byName := make(map[string]Analyzer)
	for _, a := range All() {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run builds the module-wide Program once, applies the analyzers to
// every package, filters suppressed findings, appends
// malformed-suppression findings, and returns the result sorted by
// position.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	prog := BuildProgram(pkgs)
	var out []Finding
	seen := make(map[Finding]bool) // nested map ranges can double-report one sink
	for _, p := range pkgs {
		sup := collectSuppressions(p)
		for _, a := range analyzers {
			for _, f := range a.Check(prog, p) {
				if !sup.covers(f) && !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
		out = append(out, sup.malformed...)
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings by (file, line, col, check, message) —
// message last, so two different findings from one check anchored at
// one position (e.g. two lock-order edges witnessed by the same
// acquisition) still serialize deterministically for CI diffs.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// serviceScope lists the long-running service layers that hold
// goroutines for the process lifetime; panic-safe and goroutine-leak
// gate their goroutine spawns.
var serviceScope = []string{
	"repro/internal/server",
	"repro/internal/pipeline",
	"repro/internal/cluster",
	"repro/internal/sweep",
}

// inScope reports whether the package's import path is one of the given
// roots or below one of them.
func inScope(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// posOf converts a token.Pos into a Finding's file/line/col triple.
func posOf(fset *token.FileSet, pos token.Pos) (string, int, int) {
	p := fset.Position(pos)
	return p.Filename, p.Line, p.Column
}

// finding builds a Finding at the given node position.
func finding(p *Package, check string, pos token.Pos, format string, args ...any) Finding {
	file, line, col := posOf(p.Fset, pos)
	return Finding{
		Check:   check,
		File:    file,
		Line:    line,
		Col:     col,
		Message: fmt.Sprintf(format, args...),
	}
}

// pkgPathOf returns the import path of the package an identifier's
// object belongs to, or "" for builtins and package-less objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedType unwraps pointers and aliases and returns the named type's
// package path and name, or ("", "") when the type is not named.
func namedType(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path(), obj.Name()
		}
		return "", obj.Name()
	}
	return "", ""
}

// isPkgCall reports whether the call is a qualified reference into one
// of the given package import paths (e.g. os.ReadFile, io.Copy), and if
// so returns the rendered selector for the finding message.
func isPkgCall(info *types.Info, call *ast.CallExpr, paths map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	if paths[pn.Imported().Path()] {
		return pn.Imported().Name() + "." + sel.Sel.Name, true
	}
	return "", false
}

// funcBodies calls fn once per function body in the file: every
// FuncDecl with a body and every FuncLit. The decl argument is non-nil
// only for FuncDecls.
func funcBodies(f *ast.File, fn func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				fn(v, v.Body)
			}
		case *ast.FuncLit:
			fn(nil, v.Body)
		}
		return true
	})
}
