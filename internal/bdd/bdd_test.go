package bdd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomBDD builds a random BDD over nvars variables from a seed by
// combining random literals with random connectives.
func randomBDD(f *Factory, rnd *rand.Rand, depth int) Ref {
	if depth == 0 {
		switch rnd.Intn(4) {
		case 0:
			return f.Var(rnd.Intn(f.NumVars()))
		case 1:
			return f.NVar(rnd.Intn(f.NumVars()))
		case 2:
			return True
		default:
			return False
		}
	}
	a := randomBDD(f, rnd, depth-1)
	b := randomBDD(f, rnd, depth-1)
	switch rnd.Intn(4) {
	case 0:
		return f.And(a, b)
	case 1:
		return f.Or(a, b)
	case 2:
		return f.Xor(a, b)
	default:
		return f.Diff(a, b)
	}
}

// eval evaluates the boolean function r under a complete assignment.
func eval(f *Factory, r Ref, assign []bool) bool {
	for r >= 2 {
		n := f.nodes[r]
		if assign[n.level] {
			r = n.high
		} else {
			r = n.low
		}
	}
	return r == True
}

func TestTerminals(t *testing.T) {
	f := NewFactory(4)
	if f.And(True, False) != False {
		t.Error("True AND False != False")
	}
	if f.Or(True, False) != True {
		t.Error("True OR False != True")
	}
	if f.Not(True) != False || f.Not(False) != True {
		t.Error("Not on terminals wrong")
	}
	if f.Xor(True, True) != False {
		t.Error("True XOR True != False")
	}
	if f.Diff(True, True) != False {
		t.Error("True DIFF True != False")
	}
}

func TestVarBasics(t *testing.T) {
	f := NewFactory(4)
	x, y := f.Var(0), f.Var(1)
	if f.And(x, f.Not(x)) != False {
		t.Error("x AND NOT x != False")
	}
	if f.Or(x, f.Not(x)) != True {
		t.Error("x OR NOT x != True")
	}
	if f.And(x, y) != f.And(y, x) {
		t.Error("AND not commutative (canonicity broken)")
	}
	if f.NVar(0) != f.Not(f.Var(0)) {
		t.Error("NVar != Not(Var)")
	}
}

func TestCanonicity(t *testing.T) {
	f := NewFactory(6)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := randomBDD(f, rnd, 4)
		b := randomBDD(f, rnd, 4)
		// a XOR b == False iff a == b (identity check via canonicity)
		if (f.Xor(a, b) == False) != (a == b) {
			t.Fatalf("canonicity violated: xor==False %v but refs %d vs %d", f.Xor(a, b) == False, a, b)
		}
	}
}

func TestDeMorganProperty(t *testing.T) {
	f := NewFactory(8)
	rnd := rand.New(rand.NewSource(2))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 5)
		b := randomBDD(f, r, 5)
		return f.Not(f.And(a, b)) == f.Or(f.Not(a), f.Not(b)) &&
			f.Not(f.Or(a, b)) == f.And(f.Not(a), f.Not(b)) &&
			f.Not(f.Not(a)) == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100, Rand: rnd}); err != nil {
		t.Error(err)
	}
}

func TestDistributivityProperty(t *testing.T) {
	f := NewFactory(8)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 4)
		b := randomBDD(f, r, 4)
		c := randomBDD(f, r, 4)
		return f.And(a, f.Or(b, c)) == f.Or(f.And(a, b), f.And(a, c)) &&
			f.Or(a, f.And(b, c)) == f.And(f.Or(a, b), f.Or(a, c))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSemanticAgreement(t *testing.T) {
	// BDD operations must agree with direct boolean evaluation on all
	// 2^n assignments.
	const n = 5
	f := NewFactory(n)
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := randomBDD(f, rnd, 4)
		b := randomBDD(f, rnd, 4)
		and, or, xor, diff, not := f.And(a, b), f.Or(a, b), f.Xor(a, b), f.Diff(a, b), f.Not(a)
		assign := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for i := 0; i < n; i++ {
				assign[i] = m&(1<<i) != 0
			}
			va, vb := eval(f, a, assign), eval(f, b, assign)
			if eval(f, and, assign) != (va && vb) {
				t.Fatalf("AND wrong at %05b", m)
			}
			if eval(f, or, assign) != (va || vb) {
				t.Fatalf("OR wrong at %05b", m)
			}
			if eval(f, xor, assign) != (va != vb) {
				t.Fatalf("XOR wrong at %05b", m)
			}
			if eval(f, diff, assign) != (va && !vb) {
				t.Fatalf("DIFF wrong at %05b", m)
			}
			if eval(f, not, assign) != !va {
				t.Fatalf("NOT wrong at %05b", m)
			}
		}
	}
}

func TestITE(t *testing.T) {
	f := NewFactory(6)
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		c := randomBDD(f, rnd, 3)
		a := randomBDD(f, rnd, 3)
		b := randomBDD(f, rnd, 3)
		want := f.Or(f.And(c, a), f.And(f.Not(c), b))
		if got := f.ITE(c, a, b); got != want {
			t.Fatalf("ITE mismatch: got %d want %d", got, want)
		}
	}
}

func TestExists(t *testing.T) {
	f := NewFactory(4)
	x0, x1 := f.Var(0), f.Var(1)
	// ∃x0 (x0 ∧ x1) == x1
	if got := f.Exists(f.And(x0, x1), f.NewVarSet(0)); got != x1 {
		t.Errorf("Exists(x0&x1, {x0}) = %d, want x1=%d", got, x1)
	}
	// ∃x0 (x0 ∧ ¬x0) == False
	if got := f.Exists(f.And(x0, f.Not(x0)), f.NewVarSet(0)); got != False {
		t.Errorf("Exists of empty set not False")
	}
	// ∃{x0,x1} (x0 ∧ x1) == True
	if got := f.Exists(f.And(x0, x1), f.NewVarSet(0, 1)); got != True {
		t.Errorf("Exists all vars should be True")
	}
}

func TestExistsSemantics(t *testing.T) {
	const n = 5
	f := NewFactory(n)
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		a := randomBDD(f, rnd, 4)
		v := rnd.Intn(n)
		got := f.Exists(a, f.NewVarSet(v))
		// ∃v a == a[v:=0] ∨ a[v:=1], checked pointwise.
		assign := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for i := 0; i < n; i++ {
				assign[i] = m&(1<<i) != 0
			}
			a0 := make([]bool, n)
			copy(a0, assign)
			a0[v] = false
			a1 := make([]bool, n)
			copy(a1, assign)
			a1[v] = true
			want := eval(f, a, a0) || eval(f, a, a1)
			if eval(f, got, assign) != want {
				t.Fatalf("Exists semantics wrong (var %d, m=%05b)", v, m)
			}
		}
	}
}

func TestForallDuality(t *testing.T) {
	f := NewFactory(6)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 4)
		vs := f.NewVarSet(r.Intn(6), r.Intn(6))
		return f.Forall(a, vs) == f.Not(f.Exists(f.Not(a), vs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplace(t *testing.T) {
	f := NewFactory(8)
	// shift x0 -> x4, x1 -> x5 (order-preserving)
	p := f.NewPerm(map[int]int{0: 4, 1: 5})
	a := f.And(f.Var(0), f.Not(f.Var(1)))
	want := f.And(f.Var(4), f.Not(f.Var(5)))
	if got := f.Replace(a, p); got != want {
		t.Errorf("Replace shift failed: got %d want %d", got, want)
	}
}

func TestReplaceInterleaved(t *testing.T) {
	// The NAT pattern: primed variables at odd positions renamed to the
	// even unprimed positions — order preserving.
	f := NewFactory(8)
	pairs := map[int]int{1: 0, 3: 2, 5: 4, 7: 6}
	p := f.NewPerm(pairs)
	a := f.AndN(f.Var(1), f.NVar(3), f.Var(7))
	want := f.AndN(f.Var(0), f.NVar(2), f.Var(6))
	if got := f.Replace(a, p); got != want {
		t.Errorf("interleaved replace failed")
	}
}

func TestAndExistsEquivalence(t *testing.T) {
	f := NewFactory(8)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 4)
		b := randomBDD(f, r, 4)
		vs := f.NewVarSet(r.Intn(8), r.Intn(8), r.Intn(8))
		return f.AndExists(a, b, vs) == f.Exists(f.And(a, b), vs)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRelProdMatchesNaive(t *testing.T) {
	// A transformation relation over interleaved pairs (x even input,
	// x+1 odd output): RelProd must equal the 3-step pipeline.
	const pairs = 4
	f := NewFactory(pairs * 2)
	rnd := rand.New(rand.NewSource(7))
	inputVars := make([]int, pairs)
	renaming := make(map[int]int, pairs)
	for i := 0; i < pairs; i++ {
		inputVars[i] = 2 * i
		renaming[2*i+1] = 2 * i
	}
	vs := f.NewVarSet(inputVars...)
	p := f.NewPerm(renaming)
	for trial := 0; trial < 40; trial++ {
		// relation: output bit = input bit for some pairs, flipped or
		// constant for others.
		rel := True
		for i := 0; i < pairs; i++ {
			in, out := f.Var(2*i), f.Var(2*i+1)
			switch rnd.Intn(3) {
			case 0: // identity
				rel = f.And(rel, f.Not(f.Xor(in, out)))
			case 1: // flip
				rel = f.And(rel, f.Xor(in, out))
			default: // set to 1
				rel = f.And(rel, out)
			}
		}
		in := randomBDD(f, rnd, 3)
		// Restrict input set to even (input) variables only.
		in = f.Exists(in, f.NewVarSet(1, 3, 5, 7))
		got := f.RelProd(in, rel, vs, p)
		want := f.RelProdNaive(in, rel, vs, p)
		if got != want {
			t.Fatalf("RelProd != naive at trial %d", trial)
		}
	}
}

func TestSatCount(t *testing.T) {
	f := NewFactory(10)
	if f.SatCount(True) != 1024 {
		t.Errorf("SatCount(True) = %v, want 1024", f.SatCount(True))
	}
	if f.SatCount(False) != 0 {
		t.Errorf("SatCount(False) = %v, want 0", f.SatCount(False))
	}
	if f.SatCount(f.Var(3)) != 512 {
		t.Errorf("SatCount(x3) = %v, want 512", f.SatCount(f.Var(3)))
	}
	x := f.And(f.Var(0), f.Var(9))
	if f.SatCount(x) != 256 {
		t.Errorf("SatCount(x0&x9) = %v, want 256", f.SatCount(x))
	}
}

func TestSatCountAdditive(t *testing.T) {
	// |a| + |b| == |a∨b| + |a∧b| (inclusion-exclusion)
	f := NewFactory(8)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 5)
		b := randomBDD(f, r, 5)
		return f.SatCount(a)+f.SatCount(b) == f.SatCount(f.Or(a, b))+f.SatCount(f.And(a, b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAnySat: the assignment is a model, takes the low branch wherever
// it leads somewhere, and is -1 exactly on the variables off the chosen
// path.
func TestAnySat(t *testing.T) {
	f := NewFactory(6)
	rnd := rand.New(rand.NewSource(8))
	if f.AnySat(False) != nil {
		t.Error("AnySat(False) should be nil")
	}
	for i := 0; i < 100; i++ {
		a := randomBDD(f, rnd, 4)
		if a == False {
			continue
		}
		sat := f.AnySat(a)
		if len(sat) != f.NumVars() {
			t.Fatalf("AnySat gave %d values for %d variables", len(sat), f.NumVars())
		}
		onPath := make([]bool, f.NumVars())
		for r := a; r != True; {
			n := f.nodes[r]
			onPath[n.level] = true
			want := int8(0)
			if n.low == False {
				want = 1
			}
			if sat[n.level] != want {
				t.Fatalf("AnySat set variable %d to %d, want %d (low branch first)", n.level, sat[n.level], want)
			}
			if want == 0 {
				r = n.low
			} else {
				r = n.high
			}
		}
		assign := make([]bool, f.NumVars())
		for v, val := range sat {
			if (val == -1) == onPath[v] {
				t.Fatalf("AnySat variable %d = %d, on path %v", v, val, onPath[v])
			}
			assign[v] = val == 1
		}
		if !eval(f, a, assign) {
			t.Fatalf("AnySat produced non-model")
		}
	}
	if sat := f.AnySat(True); len(sat) != f.NumVars() || slices.ContainsFunc(sat, func(v int8) bool { return v != -1 }) {
		t.Errorf("AnySat(True) = %v, want all don't-cares", sat)
	}
}

func TestPickPreferring(t *testing.T) {
	f := NewFactory(4)
	x0, x1 := f.Var(0), f.Var(1)
	set := f.Or(x0, x1)
	// Prefer x1: should pick a model with x1 true.
	sat := f.PickPreferring(set, x1)
	if sat[1] != 1 {
		t.Errorf("preference for x1 not honored: %v", sat)
	}
	// Impossible preference is skipped, possible later one still applied.
	sat = f.PickPreferring(x0, f.Not(x0), x1)
	if sat[0] != 1 {
		t.Errorf("impossible preference should be skipped: %v", sat)
	}
	if sat[1] != 1 {
		t.Errorf("later preference should still apply: %v", sat)
	}
}

func TestSupport(t *testing.T) {
	f := NewFactory(8)
	a := f.AndN(f.Var(1), f.Or(f.Var(3), f.NVar(6)))
	got := f.Support(a)
	want := []int{1, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestNodeCount(t *testing.T) {
	f := NewFactory(4)
	if f.NodeCount(True) != 0 {
		t.Error("NodeCount(True) != 0")
	}
	if f.NodeCount(f.Var(0)) != 1 {
		t.Error("NodeCount(var) != 1")
	}
}

func TestForEachPath(t *testing.T) {
	f := NewFactory(3)
	a := f.Or(f.And(f.Var(0), f.Var(1)), f.NVar(2))
	var paths int
	total := 0.0
	f.ForEachPath(a, func(assign []int8) bool {
		paths++
		free := 0
		for _, v := range assign {
			if v == -1 {
				free++
			}
		}
		total += float64(int(1) << free)
		return true
	})
	if paths == 0 {
		t.Fatal("no paths enumerated")
	}
	if total != f.SatCount(a) {
		t.Errorf("paths cover %v models, SatCount says %v", total, f.SatCount(a))
	}
}

func TestForEachPathEarlyStop(t *testing.T) {
	f := NewFactory(4)
	a := True
	for i := 0; i < 4; i++ {
		a = f.And(a, f.Or(f.Var(i), f.NVar((i+1)%4)))
	}
	count := 0
	f.ForEachPath(a, func([]int8) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop didn't stop: %d calls", count)
	}
}

func TestImplies(t *testing.T) {
	f := NewFactory(4)
	x, y := f.Var(0), f.Var(1)
	if !f.Implies(f.And(x, y), x) {
		t.Error("x&y should imply x")
	}
	if f.Implies(x, f.And(x, y)) {
		t.Error("x should not imply x&y")
	}
}

func TestLargeTableGrowth(t *testing.T) {
	// Force unique-table growth past several doublings.
	f := NewFactory(64)
	r := False
	for i := 0; i < 64; i += 2 {
		r = f.Or(r, f.And(f.Var(i), f.Var(i+1)))
	}
	if r == False || r == True {
		t.Fatal("unexpected terminal")
	}
	// Parity function forces exponential-free but deep structure; just
	// verify satCount consistency after growth.
	if f.SatCount(r)+f.SatCount(f.Not(r)) != math2pow64() {
		t.Error("satcount inconsistent after growth")
	}
}

func math2pow64() float64 {
	v := 1.0
	for i := 0; i < 64; i++ {
		v *= 2
	}
	return v
}

func TestReplaceNonMonotonePanics(t *testing.T) {
	f := NewFactory(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on order-violating Replace")
		}
	}()
	// Swap 0<->1 on a BDD depending on both: not order-preserving.
	p := f.NewPerm(map[int]int{0: 1, 1: 0})
	f.Replace(f.And(f.Var(0), f.NVar(1)), p)
}

func BenchmarkBDDAnd(b *testing.B) {
	f := NewFactory(64)
	rnd := rand.New(rand.NewSource(9))
	xs := make([]Ref, 100)
	for i := range xs {
		xs[i] = randomBDD(f, rnd, 6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.And(xs[i%100], xs[(i+37)%100])
	}
}

func TestRestrict(t *testing.T) {
	f := NewFactory(4)
	r := f.Or(f.And(f.Var(0), f.Var(1)), f.NVar(2))
	// Restricting var 0 to true: r becomes x1 OR NOT x2.
	got := f.Restrict(r, 0, true)
	want := f.Or(f.Var(1), f.NVar(2))
	if got != want {
		t.Errorf("Restrict(0,true) wrong")
	}
	// Restricting a variable not in support is identity.
	if f.Restrict(r, 3, true) != r {
		t.Errorf("Restrict on free var should be identity")
	}
}

func TestRestrictSemantics(t *testing.T) {
	const n = 5
	f := NewFactory(n)
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		a := randomBDD(f, rnd, 4)
		v := rnd.Intn(n)
		val := rnd.Intn(2) == 1
		got := f.Restrict(a, v, val)
		assign := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for i := 0; i < n; i++ {
				assign[i] = m&(1<<i) != 0
			}
			fixed := make([]bool, n)
			copy(fixed, assign)
			fixed[v] = val
			if eval(f, got, assign) != eval(f, a, fixed) {
				t.Fatalf("Restrict semantics wrong at var %d", v)
			}
		}
	}
}

func TestSwapVars(t *testing.T) {
	f := NewFactory(6)
	// f = x0 AND NOT x4; swapping 0 and 4 gives x4 AND NOT x0.
	a := f.And(f.Var(0), f.NVar(4))
	got := f.SwapVars(a, 0, 4)
	want := f.And(f.Var(4), f.NVar(0))
	if got != want {
		t.Errorf("SwapVars wrong")
	}
	if f.SwapVars(a, 2, 2) != a {
		t.Errorf("self swap must be identity")
	}
}

func TestSwapVarsProperties(t *testing.T) {
	f := NewFactory(6)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomBDD(f, r, 4)
		x, y := r.Intn(6), r.Intn(6)
		s := f.SwapVars(a, x, y)
		// Involution: swapping twice restores the original.
		if f.SwapVars(s, x, y) != a {
			return false
		}
		// Symmetric in arguments.
		return f.SwapVars(a, y, x) == s
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSwapVarsSemantics(t *testing.T) {
	const n = 5
	f := NewFactory(n)
	rnd := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		a := randomBDD(f, rnd, 4)
		x, y := rnd.Intn(n), rnd.Intn(n)
		got := f.SwapVars(a, x, y)
		assign := make([]bool, n)
		for m := 0; m < 1<<n; m++ {
			for i := 0; i < n; i++ {
				assign[i] = m&(1<<i) != 0
			}
			swapped := make([]bool, n)
			copy(swapped, assign)
			swapped[x], swapped[y] = swapped[y], swapped[x]
			if eval(f, got, assign) != eval(f, a, swapped) {
				t.Fatalf("SwapVars semantics wrong (%d<->%d)", x, y)
			}
		}
	}
}

// TestNodeCanonical: Node applies both reduction rules, so it agrees with
// ITE over the same variable and never allocates a redundant test, and it
// refuses a variable that does not lie above both children.
func TestNodeCanonical(t *testing.T) {
	f := NewFactory(4)
	lo, hi := f.Var(2), f.And(f.Var(1), f.NVar(3))
	if got := f.Node(1, lo, lo); got != lo {
		t.Errorf("Node(v, x, x) = %d, want x = %d", got, lo)
	}
	n := f.Node(0, lo, hi)
	if n != f.Node(0, lo, hi) {
		t.Error("equal triples gave different Refs")
	}
	if want := f.ITE(f.Var(0), hi, lo); n != want {
		t.Errorf("Node(0, lo, hi) = %d, ITE gives %d", n, want)
	}
	if f.Node(3, False, True) != f.Var(3) || f.Node(3, True, False) != f.NVar(3) {
		t.Error("Node over terminals differs from Var/NVar")
	}
	for _, tc := range []struct {
		name      string
		v         int
		low, high Ref
	}{
		{"same level as low", 2, lo, True},
		{"below high", 2, False, hi},
		{"out of range", 4, False, True},
		{"negative", -1, False, True},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Node(%d) did not panic", tc.name, tc.v)
				}
			}()
			f.Node(tc.v, tc.low, tc.high)
		}()
	}
}

// TestApplyCacheCapped grows a factory until its unique table passes the
// apply cache's cap, then checks that the cache stopped at the cap and
// that operations on the grown factory still obey Boolean identities,
// which canonical Refs make exact equalities. The cap is lowered to 1<<16
// entries so the factory stays small; NewFactory's cap is maxCache.
func TestApplyCacheCapped(t *testing.T) {
	f := NewFactory(32)
	if f.cacheCap != maxCache {
		t.Fatalf("new factory's cache cap %d, want %d", f.cacheCap, maxCache)
	}
	const limit = 1 << 16
	f.cacheCap = limit
	// 2048 distinct minterms over variables 21..31, then distinct nodes
	// at variable 0 over pairs of them until the unique table passes the
	// cap.
	leaves := make([]Ref, 1<<11)
	for i := range leaves {
		r := True
		for v := 31; v >= 21; v-- {
			if i>>(31-v)&1 == 1 {
				r = f.Node(v, False, r)
			} else {
				r = f.Node(v, r, False)
			}
		}
		leaves[i] = r
	}
	var tops []Ref
	for i := 0; len(f.unique) <= 2*limit; i++ {
		a, b := leaves[i%len(leaves)], leaves[(i/len(leaves)+1+i)%len(leaves)]
		if a != b {
			tops = append(tops, f.Node(0, a, b))
		}
	}
	if len(f.cache) != limit {
		t.Fatalf("apply cache has %d entries with a %d-slot unique table, want the cap %d",
			len(f.cache), len(f.unique), limit)
	}
	rnd := rand.New(rand.NewSource(1))
	for k := 0; k < 2000; k++ {
		x, y := tops[rnd.Intn(len(tops))], tops[rnd.Intn(len(tops))]
		if k%2 == 1 {
			y = f.Or(y, f.Var(1+rnd.Intn(20)))
		}
		nx, ny := f.Not(x), f.Not(y)
		and, or := f.And(x, y), f.Or(x, y)
		switch {
		case f.And(x, nx) != False || f.Or(x, nx) != True:
			t.Fatalf("x∧¬x / x∨¬x wrong for %d", x)
		case f.Not(and) != f.Or(nx, ny):
			t.Fatalf("De Morgan fails for %d, %d", x, y)
		case f.Xor(x, y) != f.Or(f.Diff(x, y), f.Diff(y, x)):
			t.Fatalf("xor identity fails for %d, %d", x, y)
		case f.SatCount(or) != f.SatCount(x)+f.SatCount(y)-f.SatCount(and):
			t.Fatalf("inclusion-exclusion fails for %d, %d", x, y)
		}
	}
	if len(f.cache) != limit {
		t.Errorf("apply cache grew past its cap to %d entries", len(f.cache))
	}
}
