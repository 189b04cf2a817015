package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the concurrency checks
// (DESIGN.md §7): a module-wide call graph over the loaded packages and
// per-function summaries of the facts the checks compose — locks
// acquired (including the diskcache directory flock as a pseudo-lock),
// I/O performed, channel receives, unbounded loops, goroutines spawned.
//
// Identity across type-check universes: the loader type-checks a
// package once as a root (with full syntax and Info) and possibly again
// as a dependency of another root, so *types.Object pointers are not
// stable across packages. Functions are therefore keyed by qualified
// name (pkg.(Recv).Name) and lock objects by declaration position
// (pkg|file:line:col) — both stable because every universe parses the
// same files into the shared FileSet.
//
// Soundness caveats (documented in DESIGN.md §7): calls through
// interfaces and func values are not resolved — the summary marks the
// caller dynamic and drops the edge, so facts reachable only through a
// dynamic call are invisible. Function literals contribute their own
// facts at their own sites but never propagate into the enclosing
// function's summary (a literal usually runs later, off the caller's
// locks). Summaries exist only for functions declared in packages
// loaded as roots: when gblint runs on a subset of the tree, calls into
// unloaded module packages are conservatively treated as fact-free.

// heldLock is one lock known to be held at a program point.
type heldLock struct {
	id     string // stable identity (pkg|file:line:col of the mutex object)
	label  string // human identity, e.g. "diskcache.Cache.mu"
	expr   string // source receiver expression at the acquisition, e.g. "c.mu"
	base   string // receiver base expression ("c" for "c.mu"), for re-lock matching
	method string // Lock, RLock, or the flock method name
	excl   bool   // exclusive acquisition (Lock or flock EX)
	pseudo bool   // directory flock pseudo-lock: ordering only, exempt from lock-io
}

// site is a program point plus the locks held there.
type lockedSite struct {
	pos  token.Pos
	held []heldLock
}

// callSite is a static call to a module function.
type callSite struct {
	lockedSite
	callee   *types.Func
	recvExpr string // rendered method receiver ("c" for c.flush()), "" otherwise
}

// ioSite is a direct I/O operation (os/io/net calls, os/net method
// calls — the lock-io sets).
type ioSite struct {
	lockedSite
	name string // rendered callee, e.g. "os.ReadFile" or "(os.File).Write"
}

// acquireSite is a lock acquisition, with the locks already held there.
type acquireSite struct {
	lockedSite
	lock heldLock
}

// goSite is a goroutine spawn: a named module function or a literal.
type goSite struct {
	pos    token.Pos
	callee *types.Func  // non-nil for `go f(...)` on a module function
	lit    *ast.FuncLit // non-nil for `go func(){...}()`
}

// loopSite is an unconditional for-loop (`for { ... }`).
type loopSite struct {
	pos     token.Pos
	canExit bool          // contains return / break(this loop) / goto / panic
	recv    bool          // contains a channel receive (select case or <-)
	callees []*types.Func // module calls inside the loop body
}

// bodyFacts are the per-function (or per-literal) facts the
// interprocedural checks compose.
type bodyFacts struct {
	pkg      *Package
	acquires []acquireSite
	calls    []callSite
	ios      []ioSite
	sends    []lockedSite
	gos      []goSite
	loops    []loopSite
	recv     bool // body contains any channel receive
	dynamic  bool // body has interface/func-value calls (summary incomplete)
}

// Program is the module-wide analysis view built by Run: every loaded
// package, facts for every declared function and literal, and the
// memoized interprocedural fixpoints the checks share.
type Program struct {
	Pkgs []*Package

	funcs    map[string]*funcNode        // funcID → declared function
	litFacts map[*ast.FuncLit]*bodyFacts // literal body → facts
	filePkg  map[string]*Package         // filename → owning package
	order    []string                    // sorted funcIDs, for deterministic fixpoints

	ioChain  map[string][]string // funcID → witness call chain ending at an I/O name
	mayRecv  map[string]bool     // funcID → body (or callee) receives from a channel
	locksAcq map[string]map[string]lockAcq
	leaky    map[string]*leakInfo

	lockFindings []Finding // lock-order findings, computed once
	lockDone     bool
}

type funcNode struct {
	id    string
	obj   *types.Func
	pkg   *Package
	decl  *ast.FuncDecl
	facts *bodyFacts
}

// lockAcq is one lock a function may (transitively) acquire.
type lockAcq struct {
	lock  heldLock
	pos   token.Pos
	pkg   *Package
	chain []string // call chain from the summarized function to the acquisition
}

// leakInfo marks a function whose execution reaches an unbounded loop
// with no exit and no channel receive.
type leakInfo struct {
	pos   token.Pos
	pkg   *Package
	chain []string
}

// funcID returns the stable cross-universe identity of a function.
func funcID(f *types.Func) string {
	if f == nil {
		return ""
	}
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		_, rname := namedType(sig.Recv().Type())
		name = "(" + rname + ")." + name
	}
	if f.Pkg() == nil {
		return name
	}
	return f.Pkg().Path() + "." + name
}

// objID returns the stable cross-universe identity of a lock object:
// its package plus its declaration position (every universe parses the
// same file into the shared FileSet, so positions agree).
func objID(fset *token.FileSet, obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + "|" + fset.Position(obj.Pos()).String()
}

// BuildProgram assembles the module-wide view: facts for every function
// body in every package. The interprocedural fixpoints are computed
// lazily by the checks that need them.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		funcs:    make(map[string]*funcNode),
		litFacts: make(map[*ast.FuncLit]*bodyFacts),
		filePkg:  make(map[string]*Package),
	}
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			prog.filePkg[p.Fset.Position(f.Pos()).Filename] = p
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					if v.Body == nil {
						return true
					}
					obj, _ := p.Info.Defs[v.Name].(*types.Func)
					if obj == nil {
						return true
					}
					node := &funcNode{
						id:    funcID(obj),
						obj:   obj,
						pkg:   p,
						decl:  v,
						facts: collectFacts(p, v.Body),
					}
					prog.funcs[node.id] = node
				case *ast.FuncLit:
					prog.litFacts[v] = collectFacts(p, v.Body)
				}
				return true
			})
		}
	}
	prog.order = make([]string, 0, len(prog.funcs))
	for id := range prog.funcs {
		prog.order = append(prog.order, id)
	}
	sort.Strings(prog.order)
	return prog
}

// node returns the declared-function node for a resolved callee, or nil
// when the callee was not loaded as a root package.
func (prog *Program) node(f *types.Func) *funcNode {
	if f == nil {
		return nil
	}
	return prog.funcs[funcID(f)]
}

// displayName renders a function for chain messages: Recv.Name or Name.
func displayName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		_, rname := namedType(sig.Recv().Type())
		return rname + "." + f.Name()
	}
	return f.Name()
}

// staticCallee resolves a call to its compile-time callee. dynamic is
// true for interface-method and func-value calls, which have no static
// callee.
func staticCallee(p *Package, call *ast.CallExpr) (fn *types.Func, dynamic bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch o := p.Info.Uses[fun].(type) {
		case *types.Func:
			return o, false
		case *types.Var:
			return nil, true // call through a func-typed variable
		}
		return nil, false // builtin or conversion
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[fun]; ok {
			f, ok := s.Obj().(*types.Func)
			if !ok {
				return nil, true // func-typed field
			}
			if types.IsInterface(s.Recv()) {
				return nil, true // dynamic dispatch
			}
			return f, false
		}
		switch o := p.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return o, false // package-qualified call
		case *types.Var:
			return nil, true // package-level func variable
		}
		return nil, false // qualified type conversion
	case *ast.FuncLit:
		return nil, false // immediately-invoked literal: analyzed as its own body
	}
	return nil, true
}

// lockIdentity resolves the receiver expression of a mutex method call
// ("s.mu" in s.mu.Lock()) to a stable lock identity and label.
func lockIdentity(p *Package, x ast.Expr) (id, label, base string, ok bool) {
	switch v := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		var obj types.Object
		if s, found := p.Info.Selections[v]; found {
			obj = s.Obj()
		} else {
			obj = p.Info.Uses[v.Sel]
		}
		if obj == nil {
			return "", "", "", false
		}
		label = obj.Name()
		if _, owner := namedType(p.Info.TypeOf(v.X)); owner != "" {
			label = owner + "." + label
		}
		if obj.Pkg() != nil {
			label = obj.Pkg().Name() + "." + label
		}
		return objID(p.Fset, obj), label, types.ExprString(v.X), true
	case *ast.Ident:
		obj := p.Info.Uses[v]
		if obj == nil {
			return "", "", "", false
		}
		label = obj.Name()
		if obj.Pkg() != nil {
			label = obj.Pkg().Name() + "." + label
		}
		return objID(p.Fset, obj), label, v.Name, true
	}
	return "", "", "", false
}

// flockMethodNames are the methods treated as acquiring the directory
// flock pseudo-lock. The match is by name on any named receiver so the
// golden corpus can model the pattern without importing diskcache; in
// the real tree only diskcache defines them.
var flockMethodNames = map[string]bool{
	"flock":          true,
	"flockShared":    true,
	"flockExclusive": true,
}

// flockCall reports whether the call acquires a directory flock, and
// resolves the pseudo-lock identity (keyed by the receiver's named
// type, since the flock guards the one directory that type owns).
func flockCall(p *Package, call *ast.CallExpr) (id, label, base, method string, excl, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || !flockMethodNames[sel.Sel.Name] {
		return "", "", "", "", false, false
	}
	s, found := p.Info.Selections[sel]
	if !found {
		return "", "", "", "", false, false
	}
	pkgPath, name := namedType(s.Recv())
	if name == "" {
		return "", "", "", "", false, false
	}
	id = pkgPath + "|" + name + ".flock"
	label = name + ".flock"
	if s.Obj().Pkg() != nil {
		label = s.Obj().Pkg().Name() + "." + label
	}
	return id, label, types.ExprString(sel.X), sel.Sel.Name, sel.Sel.Name != "flockShared", true
}

// rawLockEvent is one acquisition or release in a body, in source order.
type rawLockEvent struct {
	pos      token.Pos
	end      token.Pos // acquisitions: end of the held region
	pairKey  string    // matches acquisitions to releases
	unlockBy string    // releases: the pairKey they release; "" for acquisitions
	lock     heldLock
	deferred bool
}

// collectLockEvents finds mutex Lock/Unlock pairs and flock
// acquire/release pairs in the body (not nested literals), then
// computes each acquisition's held region: from the acquisition to the
// first matching non-deferred release, or the end of the body.
func collectLockEvents(p *Package, body *ast.BlockStmt) []rawLockEvent {
	var events []rawLockEvent
	// releaseVars maps the object of a `unlock := c.flockX()` variable to
	// the pairKey of the flock acquisition it releases.
	releaseVars := make(map[types.Object]string)

	addFlock := func(call *ast.CallExpr, deferred bool, assignTo types.Object) bool {
		id, label, base, method, excl, ok := flockCall(p, call)
		if !ok {
			return false
		}
		pairKey := "flock|" + id + "|" + base
		events = append(events, rawLockEvent{
			pos:     call.Pos(),
			pairKey: pairKey,
			lock: heldLock{id: id, label: label, expr: base, base: baseExpr(base),
				method: method, excl: excl, pseudo: true},
			deferred: deferred,
		})
		if assignTo != nil {
			releaseVars[assignTo] = pairKey
		}
		return true
	}

	walkSkippingFuncLits(body, func(n ast.Node) {
		var call *ast.CallExpr
		deferred := false
		switch v := n.(type) {
		case *ast.AssignStmt:
			// unlock := c.flockExclusive()
			if len(v.Rhs) == 1 && len(v.Lhs) == 1 {
				if c, ok := v.Rhs[0].(*ast.CallExpr); ok {
					if id, ok := v.Lhs[0].(*ast.Ident); ok {
						addFlock(c, false, identObj(p, id))
					}
				}
			}
			return
		case *ast.DeferStmt:
			call = v.Call
			deferred = true
		case *ast.ExprStmt:
			c, ok := v.X.(*ast.CallExpr)
			if !ok {
				return
			}
			call = c
		default:
			return
		}
		// Release of a flock: `unlock()` / `defer unlock()`.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if key, found := releaseVars[identObj2(p, id)]; found {
				events = append(events, rawLockEvent{pos: call.Pos(), unlockBy: key, deferred: deferred})
			}
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if addFlock(call, deferred, nil) {
			return
		}
		method := sel.Sel.Name
		switch method {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return
		}
		if !isSyncMutexMethod(p, sel) {
			return
		}
		id, label, _, ok := lockIdentity(p, sel.X)
		if !ok {
			id, label = "?|"+types.ExprString(sel.X), types.ExprString(sel.X)
		}
		expr := types.ExprString(sel.X)
		pairKey := "mutex|" + expr
		if method == "Unlock" || method == "RUnlock" {
			events = append(events, rawLockEvent{pos: call.Pos(),
				unlockBy: pairKey + "|" + strings.TrimSuffix(method, "Unlock"), deferred: deferred})
			return
		}
		events = append(events, rawLockEvent{
			pos:     call.Pos(),
			pairKey: pairKey + "|" + lockSuffix(method),
			lock: heldLock{id: id, label: label, expr: expr, base: baseExpr(expr),
				method: method, excl: method == "Lock"},
			deferred: deferred,
		})
	})

	// Compute held regions: first matching non-deferred release after the
	// acquisition ends the region; a deferred or missing release holds to
	// the end of the body.
	for i := range events {
		e := &events[i]
		if e.unlockBy != "" {
			continue
		}
		e.end = body.End()
		for j := i + 1; j < len(events); j++ {
			u := events[j]
			if u.unlockBy == e.pairKey {
				if !u.deferred {
					e.end = u.pos
				}
				break
			}
		}
	}
	return events
}

// lockSuffix distinguishes Lock/RLock pair keys so an RUnlock never
// closes a Lock region.
func lockSuffix(method string) string {
	if method == "RLock" {
		return "R"
	}
	return ""
}

// baseExpr returns the receiver base of a lock expression: "c" for
// "c.mu", "s.cache" for "s.cache.mu", the whole expression otherwise.
func baseExpr(expr string) string {
	if i := strings.LastIndex(expr, "."); i >= 0 {
		return expr[:i]
	}
	return expr
}

func identObj(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

func identObj2(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// collectFacts computes the facts for one function or literal body.
// Nested literals are excluded everywhere (they are collected as bodies
// in their own right); lock regions follow the same pairing rules the
// lock-io check always used.
func collectFacts(p *Package, body *ast.BlockStmt) *bodyFacts {
	facts := &bodyFacts{pkg: p}
	events := collectLockEvents(p, body)
	heldAt := func(pos token.Pos) []heldLock {
		var held []heldLock
		for _, e := range events {
			if e.unlockBy == "" && e.pos < pos && pos < e.end {
				held = append(held, e.lock)
			}
		}
		return held
	}
	for _, e := range events {
		if e.unlockBy == "" {
			facts.acquires = append(facts.acquires, acquireSite{
				lockedSite: lockedSite{pos: e.pos, held: heldAt(e.pos)},
				lock:       e.lock,
			})
		}
	}

	walkSkippingFuncLits(body, func(n ast.Node) {
		switch v := n.(type) {
		case *ast.SendStmt:
			facts.sends = append(facts.sends, lockedSite{pos: v.Pos(), held: heldAt(v.Pos())})
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				facts.recv = true
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(v.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					facts.recv = true
				}
			}
		case *ast.GoStmt:
			site := goSite{pos: v.Pos()}
			if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
				site.lit = lit
			} else if fn, _ := staticCallee(p, v.Call); fn != nil {
				site.callee = fn
			}
			facts.gos = append(facts.gos, site)
		case *ast.ForStmt:
			if v.Cond == nil {
				facts.loops = append(facts.loops, analyzeLoop(p, v))
			}
		case *ast.CallExpr:
			if name, ok := isPkgCall(p.Info, v, lockIOPkgs); ok {
				if !lockIOPure[name] {
					facts.ios = append(facts.ios, ioSite{
						lockedSite: lockedSite{pos: v.Pos(), held: heldAt(v.Pos())}, name: name})
				}
				return
			}
			if name, ok := isOSNetMethodCall(p, v); ok {
				facts.ios = append(facts.ios, ioSite{
					lockedSite: lockedSite{pos: v.Pos(), held: heldAt(v.Pos())}, name: name})
				return
			}
			fn, dynamic := staticCallee(p, v)
			if dynamic {
				facts.dynamic = true
			}
			if fn != nil && fn.Pkg() != nil {
				site := callSite{
					lockedSite: lockedSite{pos: v.Pos(), held: heldAt(v.Pos())}, callee: fn}
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					if _, isSelection := p.Info.Selections[sel]; isSelection {
						site.recvExpr = types.ExprString(sel.X)
					}
				}
				facts.calls = append(facts.calls, site)
			}
		}
	})
	return facts
}

// analyzeLoop classifies one `for { ... }` loop: can it exit, does it
// receive from a channel, and which module functions does it call.
func analyzeLoop(p *Package, loop *ast.ForStmt) loopSite {
	site := loopSite{pos: loop.Pos()}
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != n {
					// Nested break target: walk it at increased depth so a
					// plain `break` inside does not count as exiting our loop.
					walk(m, depth+1)
					return false
				}
			case *ast.ReturnStmt:
				site.canExit = true
			case *ast.BranchStmt:
				switch {
				case v.Tok == token.GOTO, v.Label != nil:
					site.canExit = true // conservative: labeled jumps can leave the loop
				case v.Tok == token.BREAK && depth == 0:
					site.canExit = true
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					site.recv = true
				}
			case *ast.CallExpr:
				if id, ok := v.Fun.(*ast.Ident); ok {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
						site.canExit = true
					}
				}
				if fn, _ := staticCallee(p, v); fn != nil {
					site.callees = append(site.callees, fn)
				}
			}
			return true
		})
	}
	// Walk each top-level statement of the loop body at depth 0. Select
	// and switch statements directly in the body still start at depth 1
	// for break purposes — handled by the m != n recursion above, since
	// the statements themselves differ from the root we pass.
	for _, stmt := range loop.Body.List {
		switch stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			walk(stmt, 1)
		default:
			walk(stmt, 0)
		}
	}
	if loop.Post != nil {
		walk(loop.Post, 0)
	}
	return site
}

// ---- interprocedural fixpoints ----

// ensureSummaries computes the shared fixpoints once per Program.
func (prog *Program) ensureSummaries() {
	if prog.ioChain != nil {
		return
	}
	prog.ioChain = make(map[string][]string)
	prog.mayRecv = make(map[string]bool)
	prog.locksAcq = make(map[string]map[string]lockAcq)
	prog.leaky = make(map[string]*leakInfo)

	// Seed direct facts.
	for _, id := range prog.order {
		n := prog.funcs[id]
		if len(n.facts.ios) > 0 {
			prog.ioChain[id] = []string{n.facts.ios[0].name}
		}
		prog.mayRecv[id] = n.facts.recv
		acq := make(map[string]lockAcq)
		for _, a := range n.facts.acquires {
			if _, ok := acq[a.lock.id]; !ok {
				acq[a.lock.id] = lockAcq{lock: a.lock, pos: a.pos, pkg: n.pkg}
			}
		}
		prog.locksAcq[id] = acq
	}

	// Propagate to a fixpoint. The call graph is small (one module), so
	// round-robin iteration over sorted IDs converges quickly and, more
	// importantly, deterministically — witness chains must not vary run
	// to run or gblint's own output would flunk the determinism ethos.
	for changed := true; changed; {
		changed = false
		for _, id := range prog.order {
			n := prog.funcs[id]
			for _, call := range n.facts.calls {
				cn := prog.node(call.callee)
				if cn == nil || cn.id == id {
					continue
				}
				if chain, ok := prog.ioChain[cn.id]; ok {
					if _, have := prog.ioChain[id]; !have {
						// Chain = callee display names ending in the I/O name.
						prog.ioChain[id] = append([]string{displayName(call.callee)}, chain...)
						changed = true
					}
				}
				if prog.mayRecv[cn.id] && !prog.mayRecv[id] {
					prog.mayRecv[id] = true
					changed = true
				}
				for lockID, a := range prog.locksAcq[cn.id] {
					if _, have := prog.locksAcq[id][lockID]; !have {
						prog.locksAcq[id][lockID] = lockAcq{
							lock: a.lock, pos: call.pos, pkg: n.pkg,
							chain: append([]string{displayName(call.callee)}, a.chain...),
						}
						changed = true
					}
				}
			}
		}
	}

	// Leaky loops: a loop with no exit, no receive, and no (transitive)
	// receive in anything it calls.
	for _, id := range prog.order {
		n := prog.funcs[id]
		for _, l := range n.facts.loops {
			if prog.loopLeaky(l) {
				prog.leaky[id] = &leakInfo{pos: l.pos, pkg: n.pkg}
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, id := range prog.order {
			if prog.leaky[id] != nil {
				continue
			}
			n := prog.funcs[id]
			for _, call := range n.facts.calls {
				cn := prog.node(call.callee)
				if cn == nil || cn.id == id {
					continue
				}
				if li := prog.leaky[cn.id]; li != nil {
					prog.leaky[id] = &leakInfo{pos: li.pos, pkg: li.pkg,
						chain: append([]string{displayName(call.callee)}, li.chain...)}
					changed = true
					break
				}
			}
		}
	}
}

// ioChainOf returns the I/O witness chain for a callee, if its summary
// is known and reaches I/O.
func (prog *Program) ioChainOf(f *types.Func) ([]string, bool) {
	prog.ensureSummaries()
	n := prog.node(f)
	if n == nil {
		return nil, false
	}
	chain, ok := prog.ioChain[n.id]
	return chain, ok
}

// loopLeaky reports whether one unconditional loop can never stop: no
// exit statement, no channel receive, and no receive in any module
// function the loop body calls.
func (prog *Program) loopLeaky(l loopSite) bool {
	if l.canExit || l.recv {
		return false
	}
	for _, c := range l.callees {
		if cn := prog.node(c); cn != nil && prog.mayRecv[cn.id] {
			return false
		}
	}
	return true
}

// leakOf returns leak info for a callee's (transitive) unbounded loop.
func (prog *Program) leakOf(f *types.Func) *leakInfo {
	prog.ensureSummaries()
	n := prog.node(f)
	if n == nil {
		return nil
	}
	return prog.leaky[n.id]
}

// leakOfFacts judges a body (typically a goroutine literal) directly:
// its own unbounded loops first, then calls into (transitively) leaky
// module functions.
func (prog *Program) leakOfFacts(f *bodyFacts) *leakInfo {
	prog.ensureSummaries()
	for _, l := range f.loops {
		if prog.loopLeaky(l) {
			return &leakInfo{pos: l.pos, pkg: f.pkg}
		}
	}
	for _, c := range f.calls {
		if cn := prog.node(c.callee); cn != nil {
			if li := prog.leaky[cn.id]; li != nil {
				return &leakInfo{pos: li.pos, pkg: li.pkg,
					chain: append([]string{displayName(c.callee)}, li.chain...)}
			}
		}
	}
	return nil
}

// litFactsOf returns the collected facts for a function literal.
func (prog *Program) litFactsOf(lit *ast.FuncLit) *bodyFacts {
	return prog.litFacts[lit]
}

// factsIn calls fn for every collected body belonging to package p:
// declared functions in sorted-ID order, then literals in position
// order. Checks that only read per-body facts iterate with this.
func (prog *Program) factsIn(p *Package, fn func(*bodyFacts)) {
	for _, id := range prog.order {
		if n := prog.funcs[id]; n.pkg == p {
			fn(n.facts)
		}
	}
	lits := make([]*ast.FuncLit, 0, len(prog.litFacts))
	for lit, f := range prog.litFacts {
		if f.pkg == p {
			lits = append(lits, lit)
		}
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i].Pos() < lits[j].Pos() })
	for _, lit := range lits {
		fn(prog.litFacts[lit])
	}
}

// pkgOfFile maps a finding's file back to its package.
func (prog *Program) pkgOfFile(file string) *Package { return prog.filePkg[file] }
