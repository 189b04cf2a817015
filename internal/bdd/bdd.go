// Package bdd implements reduced ordered binary decision diagrams (BDDs).
//
// Batfish's data-plane verification engine represents sets of packets and
// packet transformations as BDDs (paper §4.2.2). This package is a
// from-scratch implementation of the facilities that engine needs:
//
//   - a hash-consed unique table so BDDs are canonical for a fixed variable
//     order, enabling constant-time equality and identity-keyed caches;
//   - the standard logical operations (AND, OR, NOT, XOR, DIFF, ITE) with
//     per-operation memoization caches;
//   - existential quantification and variable renaming;
//   - RelProd, the fused AND + ∃-quantify + rename operation used to push a
//     packet set through a NAT transformation relation in one pass
//     (paper §4.2.3, "we implemented an optimized BDD operation to execute
//     these three steps simultaneously");
//   - model counting and model extraction (used for example selection).
//
// A Factory owns all nodes; Refs from different factories must not be mixed,
// and nothing copies BDDs between factories. Factories are not safe for
// concurrent use: each analysis owns exactly one, and parallel BDD work
// happens only in the sweep executor, whose per-worker pipelines each build
// their own.
//
// Panic policy: this package panics only on violated library invariants —
// an invalid variable count, a variable index out of range, a Node whose
// children do not lie below its variable, or a non-order-preserving
// Replace renaming. These are caller bugs, never reachable from user
// configuration input, and are deliberately kept as panics (the
// failure-containment layer in internal/core recovers them at stage
// boundaries as a backstop). The one recoverable panic is
// BudgetError, raised when an explicitly configured node budget is
// exceeded; see SetNodeBudget.
package bdd

import (
	"fmt"
	"math"
)

// Ref identifies a BDD node within a Factory. The terminals are False (0)
// and True (1). Refs are canonical: two Refs from the same Factory are equal
// iff they represent the same boolean function.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// node is one decision node: if variable "level" is 0 follow low, else high.
// Terminals use level = terminalLevel so that min(level, ...) recursions
// treat them as below all variables.
type node struct {
	level     int32
	low, high Ref
}

const terminalLevel = int32(1) << 30

// operation codes for the binary apply cache.
const (
	opAnd int32 = iota
	opOr
	opXor
	opDiff
	opNot
	opExists
	opAndExists
	opReplace
	opIte
	opSatCount
	opRestrict
)

// maxCache caps the apply cache at 1<<24 entries of 24 bytes (384 MiB).
// The cache is a lossy memo, so a capped one only recomputes more; without
// the cap it doubled with the unique table and, past a few million nodes,
// outweighed the node table and failed as one huge allocation. No test
// and no benchmark workload reaches the cap (EXPERIMENTS E16), so their
// operation counts are those of an uncapped cache.
const maxCache = 1 << 24

type cacheEntry struct {
	a, b, c Ref
	op      int32
	res     Ref
	ok      bool
}

// Factory allocates and operates on BDD nodes over a fixed number of
// variables. Variable i is at level i; there is no dynamic reordering
// (Batfish likewise fixes a domain-specific order up front, §4.2.2).
type Factory struct {
	nvars int

	nodes []node

	// unique is an open-addressing hash table of node indices keyed by
	// (level, low, high).
	unique     []Ref
	uniqueMask uint32

	cache     []cacheEntry
	cacheMask uint32
	cacheCap  int // maxCache; lowered only by tests

	// varsets holds interned sorted variable lists for quantification.
	varsets   [][]int32
	varsetIDs map[string]int32

	// perms holds interned variable renamings.
	perms   [][]int32
	permIDs map[string]int32

	satCache map[Ref]float64

	opCount uint64 // statistics: recursive operation applications

	// budget bounds the node table (0 = unlimited); see SetNodeBudget.
	budget int
}

// BudgetError is the panic value raised when the factory's node budget is
// exceeded. Callers that set a budget recover it at a stage boundary and
// convert it into a "Budget exceeded" diagnostic with a partial result —
// turning would-be OOMs into contained failures.
type BudgetError struct{ Limit int }

func (e BudgetError) Error() string {
	return fmt.Sprintf("bdd: node budget %d exceeded", e.Limit)
}

// IsBudget marks the error as a resource-budget trip for panic
// classification (see internal/diag).
func (e BudgetError) IsBudget() bool { return true }

// SetNodeBudget bounds the total number of nodes the factory may
// allocate; 0 removes the bound. Exceeding the budget panics with
// BudgetError, the only way to unwind the deep operation recursion;
// the factory remains usable (existing Refs stay valid) after the caller
// recovers and either raises or removes the budget.
func (f *Factory) SetNodeBudget(n int) { f.budget = n }

// NodeBudget returns the current node budget (0 = unlimited).
func (f *Factory) NodeBudget() int { return f.budget }

// NewFactory returns a Factory over nvars boolean variables.
func NewFactory(nvars int) *Factory {
	if nvars < 0 || nvars >= int(terminalLevel) {
		panic(fmt.Sprintf("bdd: invalid variable count %d", nvars))
	}
	f := &Factory{nvars: nvars, cacheCap: maxCache}
	f.nodes = make([]node, 2, 1024)
	f.nodes[False] = node{level: terminalLevel}
	f.nodes[True] = node{level: terminalLevel}
	f.initUnique(1 << 13)
	f.initCache(1 << 14)
	f.varsetIDs = make(map[string]int32)
	f.permIDs = make(map[string]int32)
	f.satCache = make(map[Ref]float64)
	return f
}

// NumVars returns the number of variables the factory was created with.
func (f *Factory) NumVars() int { return f.nvars }

// Size returns the total number of allocated nodes, including terminals.
func (f *Factory) Size() int { return len(f.nodes) }

// NodeCount returns the number of distinct nodes reachable from r,
// excluding terminals. It is the standard "BDD size" measure.
func (f *Factory) NodeCount(r Ref) int {
	seen := make(map[Ref]struct{})
	var walk func(Ref)
	walk = func(n Ref) {
		if n < 2 {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		walk(f.nodes[n].low)
		walk(f.nodes[n].high)
	}
	walk(r)
	return len(seen)
}

// OpCount returns the cumulative number of recursive operation steps,
// a machine-independent work measure used by benchmarks.
func (f *Factory) OpCount() uint64 { return f.opCount }

func (f *Factory) initUnique(size int) {
	f.unique = make([]Ref, size)
	for i := range f.unique {
		f.unique[i] = -1
	}
	f.uniqueMask = uint32(size - 1)
	for i := 2; i < len(f.nodes); i++ {
		f.uniqueInsert(Ref(i))
	}
}

func (f *Factory) initCache(size int) {
	f.cache = make([]cacheEntry, size)
	f.cacheMask = uint32(size - 1)
}

func hash3(a, b, c int32) uint32 {
	h := uint32(a)*0x9e3779b1 ^ uint32(b)*0x85ebca6b ^ uint32(c)*0xc2b2ae35
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

func (f *Factory) uniqueInsert(id Ref) {
	n := f.nodes[id]
	h := hash3(n.level, int32(n.low), int32(n.high)) & f.uniqueMask
	for f.unique[h] != -1 {
		h = (h + 1) & f.uniqueMask
	}
	f.unique[h] = id
}

// mk returns the canonical node (level, low, high), applying the two BDD
// reduction rules: redundant-test elimination and subgraph sharing.
func (f *Factory) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	h := hash3(level, int32(low), int32(high)) & f.uniqueMask
	for {
		id := f.unique[h]
		if id == -1 {
			break
		}
		n := f.nodes[id]
		if n.level == level && n.low == low && n.high == high {
			return id
		}
		h = (h + 1) & f.uniqueMask
	}
	if f.budget > 0 && len(f.nodes) >= f.budget {
		panic(BudgetError{Limit: f.budget})
	}
	id := Ref(len(f.nodes))
	f.nodes = append(f.nodes, node{level: level, low: low, high: high})
	f.unique[h] = id
	// Grow the unique table (and the apply cache, up to its cap) when load
	// exceeds 3/4.
	if uint32(len(f.nodes)) > f.uniqueMask-f.uniqueMask/4 {
		f.initUnique(len(f.unique) * 2)
		if len(f.cache) < len(f.unique) && len(f.cache) < f.cacheCap {
			f.initCache(len(f.cache) * 2)
		}
	}
	return id
}

// Var returns the BDD for "variable v is 1".
func (f *Factory) Var(v int) Ref {
	f.checkVar(v)
	return f.mk(int32(v), False, True)
}

// NVar returns the BDD for "variable v is 0".
func (f *Factory) NVar(v int) Ref {
	f.checkVar(v)
	return f.mk(int32(v), True, False)
}

// Node returns the canonical BDD "if variable v then high else low"
// without an apply: low and high must both lie strictly below v in the
// variable order (terminals lie below every variable), so a caller that
// already knows the decision structure — a prefix trie over MSB-first
// address bits, say — builds it one node per test. Node panics on a
// variable out of range or a child at or above v.
func (f *Factory) Node(v int, low, high Ref) Ref {
	f.checkVar(v)
	if int32(v) >= f.nodes[low].level || int32(v) >= f.nodes[high].level {
		panic(fmt.Sprintf("bdd: Node(%d) over children at levels %d and %d", v, f.nodes[low].level, f.nodes[high].level))
	}
	return f.mk(int32(v), low, high)
}

func (f *Factory) checkVar(v int) {
	if v < 0 || v >= f.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, f.nvars))
	}
}

// Level returns the variable tested at the root of r, or a value >= NumVars
// for terminals.
func (f *Factory) Level(r Ref) int { return int(f.nodes[r].level) }

// Low returns the low (variable=0) child of r.
func (f *Factory) Low(r Ref) Ref { return f.nodes[r].low }

// High returns the high (variable=1) child of r.
func (f *Factory) High(r Ref) Ref { return f.nodes[r].high }

func (f *Factory) cacheLookup(op int32, a, b, c Ref) (Ref, bool) {
	e := &f.cache[hash3(int32(a)^op<<24, int32(b), int32(c))&f.cacheMask]
	if e.ok && e.op == op && e.a == a && e.b == b && e.c == c {
		return e.res, true
	}
	return 0, false
}

func (f *Factory) cacheStore(op int32, a, b, c, res Ref) {
	e := &f.cache[hash3(int32(a)^op<<24, int32(b), int32(c))&f.cacheMask]
	*e = cacheEntry{a: a, b: b, c: c, op: op, res: res, ok: true}
}

// Not returns the complement of a.
func (f *Factory) Not(a Ref) Ref {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := f.cacheLookup(opNot, a, 0, 0); ok {
		return r
	}
	f.opCount++
	n := f.nodes[a]
	res := f.mk(n.level, f.Not(n.low), f.Not(n.high))
	f.cacheStore(opNot, a, 0, 0, res)
	return res
}

// And returns a ∧ b (set intersection).
func (f *Factory) And(a, b Ref) Ref { return f.apply(opAnd, a, b) }

// Or returns a ∨ b (set union).
func (f *Factory) Or(a, b Ref) Ref { return f.apply(opOr, a, b) }

// Xor returns a ⊕ b (symmetric difference).
func (f *Factory) Xor(a, b Ref) Ref { return f.apply(opXor, a, b) }

// Diff returns a ∧ ¬b (set difference).
func (f *Factory) Diff(a, b Ref) Ref { return f.apply(opDiff, a, b) }

// Implies reports whether a ⇒ b, i.e. the packet set a is contained in b.
func (f *Factory) Implies(a, b Ref) bool { return f.Diff(a, b) == False }

// AndN returns the conjunction of all arguments (True for none).
func (f *Factory) AndN(xs ...Ref) Ref {
	r := True
	for _, x := range xs {
		r = f.And(r, x)
	}
	return r
}

func (f *Factory) apply(op int32, a, b Ref) Ref {
	switch op {
	case opAnd:
		if a == b {
			return a
		}
		if a == False || b == False {
			return False
		}
		if a == True {
			return b
		}
		if b == True {
			return a
		}
		if a > b { // commutative: normalize for cache hits
			a, b = b, a
		}
	case opOr:
		if a == b {
			return a
		}
		if a == True || b == True {
			return True
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a > b {
			a, b = b, a
		}
	case opXor:
		if a == b {
			return False
		}
		if a == False {
			return b
		}
		if b == False {
			return a
		}
		if a == True {
			return f.Not(b)
		}
		if b == True {
			return f.Not(a)
		}
		if a > b {
			a, b = b, a
		}
	case opDiff:
		if a == False || b == True || a == b {
			return False
		}
		if b == False {
			return a
		}
	}
	if r, ok := f.cacheLookup(op, a, b, 0); ok {
		return r
	}
	f.opCount++
	na, nb := f.nodes[a], f.nodes[b]
	var level int32
	var a0, a1, b0, b1 Ref
	switch {
	case na.level == nb.level:
		level, a0, a1, b0, b1 = na.level, na.low, na.high, nb.low, nb.high
	case na.level < nb.level:
		level, a0, a1, b0, b1 = na.level, na.low, na.high, b, b
	default:
		level, a0, a1, b0, b1 = nb.level, a, a, nb.low, nb.high
	}
	res := f.mk(level, f.apply(op, a0, b0), f.apply(op, a1, b1))
	f.cacheStore(op, a, b, 0, res)
	return res
}

// ITE returns if-then-else: (c ∧ t) ∨ (¬c ∧ e).
func (f *Factory) ITE(c, t, e Ref) Ref {
	switch {
	case c == True:
		return t
	case c == False:
		return e
	case t == e:
		return t
	case t == True && e == False:
		return c
	case t == False && e == True:
		return f.Not(c)
	}
	if r, ok := f.cacheLookup(opIte, c, t, e); ok {
		return r
	}
	f.opCount++
	level := minLevel(f.nodes[c].level, minLevel(f.nodes[t].level, f.nodes[e].level))
	c0, c1 := f.cofactor(c, level)
	t0, t1 := f.cofactor(t, level)
	e0, e1 := f.cofactor(e, level)
	res := f.mk(level, f.ITE(c0, t0, e0), f.ITE(c1, t1, e1))
	f.cacheStore(opIte, c, t, e, res)
	return res
}

func minLevel(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func (f *Factory) cofactor(r Ref, level int32) (Ref, Ref) {
	n := f.nodes[r]
	if n.level == level {
		return n.low, n.high
	}
	return r, r
}

// VarSet interns a set of variables for use with Exists/Forall/AndExists.
type VarSet struct {
	id   int32
	vars []int32
}

// Vars returns the variables in the set, sorted ascending.
func (vs VarSet) Vars() []int32 { return vs.vars }

// Len returns the number of variables in the set.
func (vs VarSet) Len() int { return len(vs.vars) }

// NewVarSet interns the given variables (deduplicated, sorted) as a VarSet.
func (f *Factory) NewVarSet(vars ...int) VarSet {
	sorted := make([]int32, 0, len(vars))
	for _, v := range vars {
		f.checkVar(v)
		sorted = append(sorted, int32(v))
	}
	// insertion sort + dedup (variable sets are small)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	dedup := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	key := string(int32sToBytes(dedup))
	if id, ok := f.varsetIDs[key]; ok {
		return VarSet{id: id, vars: f.varsets[id]}
	}
	id := int32(len(f.varsets))
	f.varsets = append(f.varsets, dedup)
	f.varsetIDs[key] = id
	return VarSet{id: id, vars: dedup}
}

func int32sToBytes(xs []int32) []byte {
	b := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}

// Exists existentially quantifies the variables in vs out of r: the result
// is true for an assignment iff some setting of vs makes r true.
func (f *Factory) Exists(r Ref, vs VarSet) Ref {
	return f.exists(r, vs, 0)
}

// Forall universally quantifies the variables in vs out of r.
func (f *Factory) Forall(r Ref, vs VarSet) Ref {
	return f.Not(f.exists(f.Not(r), vs, 0))
}

func (f *Factory) exists(r Ref, vs VarSet, idx int) Ref {
	if r < 2 {
		return r
	}
	level := f.nodes[r].level
	for idx < len(vs.vars) && vs.vars[idx] < level {
		idx++
	}
	if idx >= len(vs.vars) {
		return r
	}
	// cache key packs the varset id and position into c
	ckey := Ref(int32(vs.id)<<10 | int32(idx))
	if res, ok := f.cacheLookup(opExists, r, ckey, 0); ok {
		return res
	}
	f.opCount++
	n := f.nodes[r]
	var res Ref
	if vs.vars[idx] == level {
		lo := f.exists(n.low, vs, idx+1)
		if lo == True {
			res = True
		} else {
			res = f.Or(lo, f.exists(n.high, vs, idx+1))
		}
	} else {
		res = f.mk(level, f.exists(n.low, vs, idx), f.exists(n.high, vs, idx))
	}
	f.cacheStore(opExists, r, ckey, 0, res)
	return res
}

// Perm interns a variable renaming for use with Replace. The renaming must
// be order-preserving on any BDD it is applied to (Batfish guarantees this
// by interleaving primed and unprimed variables, §4.2.3).
type Perm struct {
	id  int32
	m   []int32 // m[v] = new variable for v; identity elsewhere
	min int32   // smallest v with m[v] != v, for early exit
}

// NewPerm interns a renaming given as pairs {from, to}. Unlisted variables
// map to themselves.
func (f *Factory) NewPerm(pairs map[int]int) Perm {
	m := make([]int32, f.nvars)
	for i := range m {
		m[i] = int32(i)
	}
	min := int32(f.nvars)
	for from, to := range pairs {
		f.checkVar(from)
		f.checkVar(to)
		m[from] = int32(to)
		if int32(from) < min {
			min = int32(from)
		}
	}
	key := string(int32sToBytes(m))
	if id, ok := f.permIDs[key]; ok {
		return Perm{id: id, m: f.perms[id], min: min}
	}
	id := int32(len(f.perms))
	f.perms = append(f.perms, m)
	f.permIDs[key] = id
	return Perm{id: id, m: m, min: min}
}

// Replace renames variables in r according to p. The renaming must be
// order-preserving on the support of r; Replace panics otherwise, since a
// silently misordered BDD would corrupt every downstream operation.
func (f *Factory) Replace(r Ref, p Perm) Ref {
	return f.replace(r, p)
}

func (f *Factory) replace(r Ref, p Perm) Ref {
	if r < 2 {
		return r
	}
	level := f.nodes[r].level
	if level >= int32(len(p.m)) { // terminal guard (should not occur)
		return r
	}
	ckey := Ref(p.id)
	if res, ok := f.cacheLookup(opReplace, r, ckey, 0); ok {
		return res
	}
	f.opCount++
	n := f.nodes[r]
	lo := f.replace(n.low, p)
	hi := f.replace(n.high, p)
	newLevel := p.m[level]
	if lo >= 2 && f.nodes[lo].level <= newLevel || hi >= 2 && f.nodes[hi].level <= newLevel {
		panic("bdd: Replace renaming is not order-preserving on this BDD")
	}
	res := f.mk(newLevel, lo, hi)
	f.cacheStore(opReplace, r, ckey, 0, res)
	return res
}

// AndExists returns ∃vs (a ∧ b) without materializing the conjunction,
// the classical relational-product inner loop.
func (f *Factory) AndExists(a, b Ref, vs VarSet) Ref {
	return f.andExists(a, b, vs, 0)
}

func (f *Factory) andExists(a, b Ref, vs VarSet, idx int) Ref {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	level := minLevel(f.nodes[a].level, f.nodes[b].level)
	for idx < len(vs.vars) && vs.vars[idx] < level {
		idx++
	}
	if idx >= len(vs.vars) {
		return f.And(a, b)
	}
	if a > b {
		a, b = b, a
	}
	ckey := Ref(int32(vs.id)<<10 | int32(idx))
	if res, ok := f.cacheLookup(opAndExists, a, b, ckey); ok {
		return res
	}
	f.opCount++
	a0, a1 := f.cofactor(a, level)
	b0, b1 := f.cofactor(b, level)
	var res Ref
	if vs.vars[idx] == level {
		lo := f.andExists(a0, b0, vs, idx+1)
		if lo == True {
			res = True
		} else {
			res = f.Or(lo, f.andExists(a1, b1, vs, idx+1))
		}
	} else {
		res = f.mk(level, f.andExists(a0, b0, vs, idx), f.andExists(a1, b1, vs, idx))
	}
	f.cacheStore(opAndExists, a, b, ckey, res)
	return res
}

// RelProd pushes the set "in" through the transformation relation rel:
// it computes Replace(∃vs (in ∧ rel), p) as one fused pipeline. vs is the
// set of unprimed (input) variables constrained by rel and p renames rel's
// primed output variables back to unprimed ones. This is the optimized
// NAT-edge operation of paper §4.2.3.
func (f *Factory) RelProd(in, rel Ref, vs VarSet, p Perm) Ref {
	return f.Replace(f.AndExists(in, rel, vs), p)
}

// RelProdNaive is the unfused 3-step version (And, then Exists, then
// Replace), kept as the ablation baseline for benchmarks.
func (f *Factory) RelProdNaive(in, rel Ref, vs VarSet, p Perm) Ref {
	return f.Replace(f.Exists(f.And(in, rel), vs), p)
}

// Restrict returns the cofactor of r with variable v fixed to val.
func (f *Factory) Restrict(r Ref, v int, val bool) Ref {
	f.checkVar(v)
	return f.restrict(r, int32(v), val)
}

func (f *Factory) restrict(r Ref, v int32, val bool) Ref {
	if r < 2 {
		return r
	}
	n := f.nodes[r]
	if n.level > v {
		return r
	}
	if n.level == v {
		if val {
			return n.high
		}
		return n.low
	}
	ckey := Ref(v << 1)
	if val {
		ckey |= 1
	}
	if res, ok := f.cacheLookup(opRestrict, r, ckey, 0); ok {
		return res
	}
	f.opCount++
	res := f.mk(n.level, f.restrict(n.low, v, val), f.restrict(n.high, v, val))
	f.cacheStore(opRestrict, r, ckey, 0, res)
	return res
}

// SwapVars returns r with variables a and b exchanged. Unlike Replace,
// the positions may be arbitrary: the result is rebuilt from the four
// double cofactors, so no order-preservation is required. Batfish needs
// this for return-flow (swapped src/dst) construction in bidirectional
// reachability; a monolithic swap *relation* between distant variable
// blocks would be exponentially large under any fixed order, while a
// sequence of single-pair swaps stays proportional to the set's structure.
func (f *Factory) SwapVars(r Ref, a, b int) Ref {
	if a == b {
		return r
	}
	r00 := f.Restrict(f.Restrict(r, a, false), b, false)
	r01 := f.Restrict(f.Restrict(r, a, false), b, true)
	r10 := f.Restrict(f.Restrict(r, a, true), b, false)
	r11 := f.Restrict(f.Restrict(r, a, true), b, true)
	va, vb := f.Var(a), f.Var(b)
	// result(a=p, b=q) = r(a=q, b=p)
	return f.ITE(va, f.ITE(vb, r11, r01), f.ITE(vb, r10, r00))
}

// SatCount returns the number of satisfying assignments of r over all
// factory variables, as a float64 (counts can exceed 2^63).
func (f *Factory) SatCount(r Ref) float64 {
	if len(f.satCache) > 1<<20 {
		f.satCache = make(map[Ref]float64)
	}
	return f.satCount(r) * math.Pow(2, float64(f.nodes[r].levelOr(int32(f.nvars))))
}

func (n node) levelOr(max int32) int32 {
	if n.level > max {
		return max
	}
	return n.level
}

// satCount returns models of r over variables strictly below r's level.
func (f *Factory) satCount(r Ref) float64 {
	if r == False {
		return 0
	}
	if r == True {
		return 1
	}
	if c, ok := f.satCache[r]; ok {
		return c
	}
	n := f.nodes[r]
	lo := f.satCount(n.low) * math.Pow(2, float64(f.nodes[n.low].levelOr(int32(f.nvars))-n.level-1))
	hi := f.satCount(n.high) * math.Pow(2, float64(f.nodes[n.high].levelOr(int32(f.nvars))-n.level-1))
	c := lo + hi
	f.satCache[r] = c
	return c
}

// Assignment maps variable index to value. Variables not mentioned are
// don't-cares.
type Assignment map[int]bool

// AnySat returns one satisfying assignment of r, or nil if r is False.
// At each node it prefers the low (0) branch, which together with MSB-first
// field encodings yields numerically small, stable witnesses.
func (f *Factory) AnySat(r Ref) Assignment {
	if r == False {
		return nil
	}
	a := make(Assignment)
	for r != True {
		n := f.nodes[r]
		if n.low != False {
			a[int(n.level)] = false
			r = n.low
		} else {
			a[int(n.level)] = true
			r = n.high
		}
	}
	return a
}

// PickPreferring returns a satisfying assignment of r, trying to satisfy as
// many of the preference constraints as possible, in order. Each preference
// that keeps the set nonempty is applied; the rest are skipped. This is the
// example-selection mechanism of paper §4.4.3 ("BDDs help to select positive
// and negative examples quickly by intersecting the answer space with
// preference constraints").
func (f *Factory) PickPreferring(r Ref, prefs ...Ref) Assignment {
	if r == False {
		return nil
	}
	for _, p := range prefs {
		if next := f.And(r, p); next != False {
			r = next
		}
	}
	return f.AnySat(r)
}

// Support returns the set of variables r depends on, sorted ascending.
func (f *Factory) Support(r Ref) []int {
	seen := make(map[Ref]struct{})
	vars := make(map[int]struct{})
	var walk func(Ref)
	walk = func(n Ref) {
		if n < 2 {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		vars[int(f.nodes[n].level)] = struct{}{}
		walk(f.nodes[n].low)
		walk(f.nodes[n].high)
	}
	walk(r)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ForEachPath invokes fn for every path from r to True, passing the partial
// assignment along the path (variables not mentioned are don't-cares).
// If fn returns false, enumeration stops. The assignment slice is reused
// across calls; callers must copy it to retain it.
func (f *Factory) ForEachPath(r Ref, fn func(assign []int8) bool) {
	assign := make([]int8, f.nvars)
	for i := range assign {
		assign[i] = -1
	}
	f.forEachPath(r, assign, fn)
}

func (f *Factory) forEachPath(r Ref, assign []int8, fn func([]int8) bool) bool {
	if r == False {
		return true
	}
	if r == True {
		return fn(assign)
	}
	n := f.nodes[r]
	assign[n.level] = 0
	if !f.forEachPath(n.low, assign, fn) {
		assign[n.level] = -1
		return false
	}
	assign[n.level] = 1
	if !f.forEachPath(n.high, assign, fn) {
		assign[n.level] = -1
		return false
	}
	assign[n.level] = -1
	return true
}
