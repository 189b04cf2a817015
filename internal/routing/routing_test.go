package routing

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ip4"
)

func TestProtocolAdminDistances(t *testing.T) {
	cases := map[Protocol]uint8{
		Connected: 0, Static: 1, EBGP: 20, OSPF: 110, OSPFE2: 110, IBGP: 200,
	}
	for p, want := range cases {
		if got := p.DefaultAdminDistance(); got != want {
			t.Errorf("%v AD = %d, want %d", p, got, want)
		}
	}
}

func TestASPathIntern(t *testing.T) {
	pool := NewPool()
	a := pool.ASPath(65001, 65002)
	b := pool.ASPath(65001, 65002)
	if a != b {
		t.Error("equal AS paths must intern to equal values")
	}
	if a.Len() != 2 || a.At(0) != 65001 || a.At(1) != 65002 {
		t.Errorf("path content wrong: %v", a)
	}
	if !a.Contains(65002) || a.Contains(65003) {
		t.Error("Contains wrong")
	}
	if a.String() != "65001 65002" {
		t.Errorf("String = %q", a.String())
	}
	empty := pool.ASPath()
	if empty.Len() != 0 || empty.String() != "" {
		t.Error("empty path wrong")
	}
}

func TestPrepend(t *testing.T) {
	pool := NewPool()
	base := pool.ASPath(65002)
	got := pool.Prepend(base, 65001, 3)
	want := pool.ASPath(65001, 65001, 65001, 65002)
	if got != want {
		t.Errorf("Prepend = %v, want %v", got, want)
	}
}

func TestCommunitySetIntern(t *testing.T) {
	pool := NewPool()
	a := pool.CommunitySet(100, 50, 100, 200)
	b := pool.CommunitySet(200, 100, 50)
	if a != b {
		t.Error("community sets must dedupe+sort before interning")
	}
	if a.Len() != 3 || !a.Has(50) || !a.Has(100) || !a.Has(200) || a.Has(75) {
		t.Errorf("set content wrong: %v", a.Values())
	}
}

func TestCommunitySetHasProperty(t *testing.T) {
	pool := NewPool()
	check := func(vals []uint32, probe uint32) bool {
		s := pool.CommunitySet(vals...)
		want := false
		for _, v := range vals {
			if v == probe {
				want = true
			}
		}
		return s.Has(probe) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddRemoveCommunity(t *testing.T) {
	pool := NewPool()
	s := pool.CommunitySet(1, 2)
	s2 := pool.AddCommunity(s, 3)
	if !s2.Has(3) || s2.Len() != 3 {
		t.Error("AddCommunity failed")
	}
	s3 := pool.RemoveCommunities(s2, func(v uint32) bool { return v == 2 })
	if s3.Has(2) || s3.Len() != 2 {
		t.Error("RemoveCommunities failed")
	}
}

func TestCommunityString(t *testing.T) {
	if CommunityString(65000<<16|100) != "65000:100" {
		t.Errorf("CommunityString wrong: %s", CommunityString(65000<<16|100))
	}
}

func TestAttrsIntern(t *testing.T) {
	pool := NewPool()
	a1 := pool.Attrs(&BGPAttrs{LocalPref: 100, ASPath: pool.ASPath(65001)})
	a2 := pool.Attrs(&BGPAttrs{LocalPref: 100, ASPath: pool.ASPath(65001)})
	a3 := pool.Attrs(&BGPAttrs{LocalPref: 200, ASPath: pool.ASPath(65001)})
	if a1 != a2 {
		t.Error("equal attrs must intern to same pointer")
	}
	if a1 == a3 {
		t.Error("different attrs must not share pointer")
	}
	st := pool.Stats()
	if st.UniqueAttrs != 2 || st.AttrHits != 1 || st.AttrMisses != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
	// Three identical ASPath(65001) calls: one miss, two hits.
	if st.PathHits != 2 || st.PathMisses != 1 {
		t.Errorf("path stats wrong: %+v", st)
	}
}

func pfx(s string) ip4.Prefix { return ip4.MustParsePrefix(s) }

func TestRIBMergeBestAndDelta(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	r1 := Route{Prefix: pfx("10.0.0.0/8"), Protocol: OSPF, AD: 110, Metric: 20, NextHop: ip4.MustParseAddr("1.1.1.1")}
	r2 := Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1, NextHop: ip4.MustParseAddr("2.2.2.2")}
	if !r.Merge(r1) {
		t.Error("first merge should change best")
	}
	if !r.Merge(r2) {
		t.Error("better AD should change best")
	}
	best := r.Best(pfx("10.0.0.0/8"))
	if len(best) != 1 || best[0].Protocol != Static {
		t.Errorf("best = %v, want static", best)
	}
	d := r.TakeDelta()
	// Net delta: added ospf, removed ospf, added static — recorded in
	// sequence: ospf added; then static added and ospf removed.
	if len(d.Added) != 2 || len(d.Removed) != 1 {
		t.Errorf("delta = %+v", d)
	}
	if r.PendingDelta() {
		t.Error("delta should be reset after Take")
	}
}

func TestRIBMergeIdempotent(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	rt := Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1}
	r.Merge(rt)
	if r.Merge(rt) {
		t.Error("duplicate merge must be a no-op")
	}
	if r.CandidateCount() != 1 {
		t.Error("duplicate created a candidate")
	}
	// Clock of the retained route must be the original (oldest wins).
	if r.Best(rt.Prefix)[0].Clock != 1 {
		t.Errorf("clock rewritten: %d", r.Best(rt.Prefix)[0].Clock)
	}
}

func TestRIBWithdrawRevealsAlternative(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	worse := Route{Prefix: pfx("10.0.0.0/8"), Protocol: OSPF, AD: 110, Metric: 5}
	better := Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1}
	r.Merge(worse)
	r.Merge(better)
	r.TakeDelta()
	if !r.Withdraw(better) {
		t.Error("withdrawing best should change best set")
	}
	best := r.Best(pfx("10.0.0.0/8"))
	if len(best) != 1 || best[0].Protocol != OSPF {
		t.Errorf("alternative not promoted: %v", best)
	}
	d := r.TakeDelta()
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Errorf("withdraw delta wrong: %+v", d)
	}
}

func TestRIBWithoutDeltaRecordsNone(t *testing.T) {
	r := NewRIBWithoutDelta(MainComparator, &Clock{})
	worse := Route{Prefix: pfx("10.0.0.0/8"), Protocol: OSPF, AD: 110, Metric: 5}
	better := Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1}
	if !r.Merge(worse) || !r.Merge(better) || !r.Withdraw(better) {
		t.Fatal("best-set changes must still be reported")
	}
	if best := r.Best(worse.Prefix); len(best) != 1 || best[0].Protocol != OSPF {
		t.Errorf("best = %v, want ospf", best)
	}
	if r.PendingDelta() || !r.TakeDelta().Empty() {
		t.Error("a RIB without delta recorded one")
	}
}

// TestRIBLoadThenMutate asserts a loaded RIB behaves like a merged one
// afterwards: later merges, withdrawals and removals rank against the
// loaded candidates without corrupting other prefixes' best sets.
func TestRIBLoadThenMutate(t *testing.T) {
	a := Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, AD: 110, Metric: 10, NextHop: 1}
	b := Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, AD: 110, Metric: 10, NextHop: 2}
	c := Route{Prefix: pfx("10.0.1.0/24"), Protocol: OSPF, AD: 110, Metric: 10, NextHop: 3}
	d := Route{Prefix: pfx("10.0.1.0/24"), Protocol: OSPF, AD: 110, Metric: 10, NextHop: 4}
	clk := &Clock{}
	clk.Next()
	r := NewRIB(OSPFComparator, clk)
	if err := r.Load([]Route{a, b, c, d}); err != nil {
		t.Fatal(err)
	}
	if best := r.Best(a.Prefix); len(best) != 2 || best[0].Clock != 2 || best[1].Clock != 3 {
		t.Fatalf("loaded best set = %+v, want clocks 2 and 3", best)
	}
	if r.PendingDelta() || r.CandidateCount() != 4 || r.Size() != 4 {
		t.Fatalf("load recorded a delta or miscounted: %d candidates, %d best", r.CandidateCount(), r.Size())
	}
	if !r.Withdraw(a) {
		t.Fatal("withdraw of a loaded best route must change the best set")
	}
	if best := r.Best(a.Prefix); len(best) != 1 || best[0].NextHop != 2 {
		t.Errorf("after withdraw best = %+v", best)
	}
	if d := r.TakeDelta(); len(d.Added) != 0 || len(d.Removed) != 1 || d.Removed[0].NextHop != 1 {
		t.Errorf("withdraw delta = %+v, want only the withdrawn route removed", d)
	}
	if r.Merge(b) {
		t.Error("re-merging a loaded route must be a no-op")
	}
	r.RemoveWhere(c.Prefix, func(rt Route) bool { return rt.NextHop == 3 })
	if best := r.Best(c.Prefix); len(best) != 1 || best[0].NextHop != 4 {
		t.Errorf("after RemoveWhere best = %+v", best)
	}
	if d := r.TakeDelta(); len(d.Removed) != 1 || d.Removed[0].NextHop != 3 {
		t.Errorf("RemoveWhere delta = %+v, want only the removed route", d)
	}
	r.RemoveWhere(c.Prefix, func(Route) bool { return true })
	if r.Best(c.Prefix) != nil || len(r.Prefixes()) != 1 {
		t.Errorf("RemoveWhere left %v", r.Prefixes())
	}
	if best := r.Best(a.Prefix); len(best) != 1 || best[0].NextHop != 2 {
		t.Errorf("a neighbor prefix's mutation changed %+v", best)
	}
}

func TestRIBLoadRejects(t *testing.T) {
	a := Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, NextHop: 1}
	b := Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, NextHop: 2}
	c := Route{Prefix: pfx("10.0.1.0/24"), Protocol: OSPF}
	for name, routes := range map[string][]Route{
		"prefix order":  {c, a},
		"route order":   {b, a},
		"duplicate":     {a, a},
		"non-canonical": {{Prefix: ip4.Prefix{Addr: 0x0a000001, Len: 24}}},
	} {
		r := NewRIB(OSPFComparator, &Clock{})
		if err := r.Load(routes); err == nil {
			t.Errorf("%s: Load accepted %v", name, routes)
		}
		if len(r.Prefixes()) != 0 {
			t.Errorf("%s: a rejected Load left prefixes behind", name)
		}
	}
	r := NewRIB(OSPFComparator, &Clock{})
	r.Merge(a)
	if err := r.Load([]Route{c}); err == nil {
		t.Error("Load into a non-empty RIB accepted")
	}
}

func TestRIBECMP(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(OSPFComparator, clk)
	for i := 0; i < 4; i++ {
		r.Merge(Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, AD: 110, Metric: 10,
			NextHop: ip4.Addr(0x01010101 + uint32(i))})
	}
	if got := len(r.Best(pfx("10.0.0.0/24"))); got != 4 {
		t.Errorf("ECMP best set = %d routes, want 4", got)
	}
	// A cheaper route evicts all of them.
	r.Merge(Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, AD: 110, Metric: 5, NextHop: ip4.MustParseAddr("9.9.9.9")})
	if got := len(r.Best(pfx("10.0.0.0/24"))); got != 1 {
		t.Errorf("cheaper route should evict ECMP set, got %d", got)
	}
}

func TestOSPFComparatorTypePreference(t *testing.T) {
	intra := Route{Protocol: OSPF, Metric: 100}
	e2 := Route{Protocol: OSPFE2, Metric: 1}
	if OSPFComparator(intra, e2) <= 0 {
		t.Error("intra-area must beat E2 regardless of cost")
	}
}

func TestRemoveWhere(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	p := pfx("10.0.0.0/8")
	r.Merge(Route{Prefix: p, Protocol: EBGP, AD: 20, NextHopNode: "peer1"})
	r.Merge(Route{Prefix: p, Protocol: EBGP, AD: 20, NextHopNode: "peer2", NextHop: 1})
	if !r.RemoveWhere(p, func(rt Route) bool { return rt.NextHopNode == "peer1" }) {
		t.Error("RemoveWhere should report change")
	}
	if r.CandidateCount() != 1 {
		t.Error("candidate not removed")
	}
	if r.RemoveWhere(p, func(rt Route) bool { return rt.NextHopNode == "nobody" }) {
		t.Error("no-op RemoveWhere should return false")
	}
}

func TestLongestMatch(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	r.Merge(Route{Prefix: pfx("0.0.0.0/0"), Protocol: Static, AD: 1, NextHopNode: "default"})
	r.Merge(Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1, NextHopNode: "eight"})
	r.Merge(Route{Prefix: pfx("10.1.0.0/16"), Protocol: Static, AD: 1, NextHopNode: "sixteen"})
	cases := map[string]string{
		"10.1.2.3":  "sixteen",
		"10.2.0.1":  "eight",
		"192.0.2.1": "default",
	}
	for addr, want := range cases {
		got := r.LongestMatch(ip4.MustParseAddr(addr))
		if len(got) != 1 || got[0].NextHopNode != want {
			t.Errorf("LongestMatch(%s) = %v, want %s", addr, got, want)
		}
	}
}

func TestStateHashDetectsChange(t *testing.T) {
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	h0 := r.StateHash()
	r.Merge(Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1})
	h1 := r.StateHash()
	if h0 == h1 {
		t.Error("hash must change when best set changes")
	}
	// Clock-only differences must NOT change the hash (clock is not
	// identity).
	c2 := &Clock{}
	for i := 0; i < 1000; i++ {
		c2.Next()
	}
	r2 := NewRIB(MainComparator, c2)
	r2.Merge(Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, AD: 1})
	if r2.StateHash() != h1 {
		t.Error("hash must be clock-independent")
	}
}

func TestDeterministicOrder(t *testing.T) {
	// Best sets must come out in canonical order regardless of merge order.
	mk := func(order []int) []Route {
		clk := &Clock{}
		r := NewRIB(OSPFComparator, clk)
		nhs := []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"}
		for _, i := range order {
			r.Merge(Route{Prefix: pfx("10.0.0.0/24"), Protocol: OSPF, Metric: 7, AD: 110,
				NextHop: ip4.MustParseAddr(nhs[i])})
		}
		return r.AllBest()
	}
	a := mk([]int{0, 1, 2})
	b := mk([]int{2, 0, 1})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("order not canonical: %v vs %v", a[i], b[i])
		}
	}
}

func TestRIBRandomizedInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	clk := &Clock{}
	r := NewRIB(MainComparator, clk)
	live := map[Key]Route{}
	prefixes := []ip4.Prefix{pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("0.0.0.0/0")}
	for i := 0; i < 2000; i++ {
		rt := Route{
			Prefix:   prefixes[rnd.Intn(len(prefixes))],
			Protocol: Protocol(rnd.Intn(3)),
			AD:       uint8(rnd.Intn(3)),
			Metric:   uint32(rnd.Intn(4)),
			NextHop:  ip4.Addr(rnd.Intn(5)),
		}
		if rnd.Intn(3) == 0 {
			r.Withdraw(rt)
			delete(live, rt.Key())
		} else {
			r.Merge(rt)
			live[rt.Key()] = rt
		}
	}
	if r.CandidateCount() != len(live) {
		t.Fatalf("candidate count %d, want %d", r.CandidateCount(), len(live))
	}
	// Every best route must be no worse than every live candidate for its
	// prefix.
	for _, p := range r.Prefixes() {
		best := r.Best(p)
		for _, c := range r.Candidates(p) {
			if MainComparator(c, best[0]) > 0 {
				t.Fatalf("candidate %v beats best %v", c, best[0])
			}
		}
	}
}

func TestClockMonotone(t *testing.T) {
	c := &Clock{}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		n := c.Next()
		if n <= prev {
			t.Fatal("clock not monotonic")
		}
		prev = n
	}
	if c.Now() != prev {
		t.Error("Now != last Next")
	}
}

func TestRouteString(t *testing.T) {
	pool := NewPool()
	r := Route{Prefix: pfx("10.0.0.0/8"), Protocol: EBGP, NextHop: ip4.MustParseAddr("1.2.3.4"),
		AD: 20, Attrs: pool.Attrs(&BGPAttrs{LocalPref: 100, ASPath: pool.ASPath(65001)})}
	if r.String() == "" {
		t.Error("empty route string")
	}
	drop := Route{Prefix: pfx("10.0.0.0/8"), Protocol: Static, Drop: true}
	if drop.String() == "" {
		t.Error("empty drop string")
	}
}

func TestPoolConcurrentInterning(t *testing.T) {
	// The sharded pool's contract: concurrent interning from many
	// goroutines yields exactly one canonical value per distinct input.
	pool := NewPool()
	const workers = 8
	const perWorker = 2000
	paths := make([][]ASPath, workers)
	attrs := make([][]*BGPAttrs, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				asn := uint32(65000 + i%50)
				p := pool.ASPath(asn, asn+1)
				cs := pool.CommunitySet(asn<<16|1, asn<<16|2)
				a := pool.Attrs(&BGPAttrs{LocalPref: uint32(i % 7), ASPath: p, Communities: cs})
				paths[w] = append(paths[w], p)
				attrs[w] = append(attrs[w], a)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range paths[0] {
			if paths[w][i] != paths[0][i] {
				t.Fatal("same path interned to different values across goroutines")
			}
			if attrs[w][i] != attrs[0][i] {
				t.Fatal("same attrs interned to different pointers across goroutines")
			}
		}
	}
	st := pool.Stats()
	if st.UniqueASPaths != 50 || st.UniqueCommSets != 50 {
		t.Errorf("unique counts wrong: %+v", st)
	}
	if st.AttrMisses != 50*7 {
		t.Errorf("attr misses = %d, want %d", st.AttrMisses, 50*7)
	}
	if st.AttrHits != workers*perWorker-50*7 {
		t.Errorf("attr hits = %d, want %d", st.AttrHits, workers*perWorker-50*7)
	}
}

func TestInternHitPathDoesNotAllocate(t *testing.T) {
	pool := NewPool()
	pool.ASPath(65001, 65002, 65003)
	pool.CommunitySet(100, 200)
	allocs := testing.AllocsPerRun(200, func() {
		pool.ASPath(65001, 65002, 65003)
	})
	if allocs != 0 {
		t.Errorf("ASPath hit path allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		pool.CommunitySet(100, 200)
	})
	if allocs != 0 {
		t.Errorf("CommunitySet hit path allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRemoveCommunitiesNoMatchReturnsSameSet(t *testing.T) {
	pool := NewPool()
	s := pool.CommunitySet(1, 2, 3)
	out := pool.RemoveCommunities(s, func(uint32) bool { return false })
	if out != s {
		t.Error("no-op removal should return the original interned set")
	}
	allocs := testing.AllocsPerRun(100, func() {
		pool.RemoveCommunities(s, func(v uint32) bool { return v == 2 })
	})
	if allocs != 0 {
		t.Errorf("RemoveCommunities allocates %.1f objects/op, want 0", allocs)
	}
}
