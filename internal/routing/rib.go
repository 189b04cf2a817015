package routing

import (
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/ip4"
)

// Clock is the logical clock of paper §4.1.2: every route merged into any
// RIB is stamped with a monotonically increasing arrival time, letting the
// BGP decision process prefer the oldest equally-good path, like routers
// do, which removes pathological re-advertisement loops.
//
// The counter is atomic so that nodes of the same color class can merge in
// parallel; only the relative order of merges *within* one node matters for
// tie-breaking, and each node's merges are sequential.
type Clock struct {
	t atomic.Uint64
}

// Next returns the next timestamp.
func (c *Clock) Next() uint64 { return c.t.Add(1) }

// Now returns the current timestamp without advancing.
func (c *Clock) Now() uint64 { return c.t.Load() }

// Advance moves the clock n draws forward without stamping anything: a
// run that shares n routes another RIB stamped from an equal clock skips
// their draws, so its later draws stamp what drawing them would have.
func (c *Clock) Advance(n uint64) { c.t.Add(n) }

// Comparator orders candidate routes for the same prefix: positive if a is
// preferred over b, negative if b over a, zero if equally good (ECMP).
type Comparator func(a, b Route) int

// Delta records changes to a RIB's best-route set during one iteration —
// the unit of exchange in the queue-free hybrid scheme of §4.1.3. Receivers
// pull deltas directly from their neighbors' RIBs instead of having routes
// pushed onto per-session queues.
type Delta struct {
	Added   []Route
	Removed []Route
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// Len returns the total number of changes.
func (d Delta) Len() int { return len(d.Added) + len(d.Removed) }

// entry is one prefix's candidates and best set. Load leaves the two
// sharing storage; the in-place candidate edits call unshare first.
type entry struct {
	candidates []Route
	best       []Route
}

// unshare gives e its own candidate storage while it still shares it
// with the best set, so editing candidates in place cannot change best.
func (e *entry) unshare() {
	if len(e.candidates) > 0 && len(e.best) > 0 && &e.candidates[0] == &e.best[0] {
		e.candidates = append([]Route(nil), e.candidates...)
	}
}

// RIB holds routes for one protocol (or the main RIB), maintaining the
// best-route set per prefix under a Comparator and accumulating a Delta of
// best-set changes.
type RIB struct {
	cmp      Comparator
	clock    *Clock
	entries  map[ip4.Prefix]*entry
	delta    Delta
	noDelta  bool // best-set changes are not recorded (NewRIBWithoutDelta)
	nRoutes  int  // total candidates, for memory accounting
	maxCands int

	// scratch is the recompute working set. Most merges during convergence
	// do not change the best set, so building the candidate ranking in a
	// reused slice makes the no-change path allocation-free.
	scratch []Route

	// sorted is a cached snapshot of Prefixes() output. Once built it is
	// never mutated (invalidation rebuilds a fresh slice), so callers may
	// keep iterating a returned snapshot across RIB mutations.
	sorted      []ip4.Prefix
	sortedValid bool
}

// NewRIB creates a RIB with the given comparator and logical clock.
// The clock may be shared across RIBs (one per simulated network).
func NewRIB(cmp Comparator, clock *Clock) *RIB {
	return &RIB{cmp: cmp, clock: clock, entries: make(map[ip4.Prefix]*entry)}
}

// NewRIBWithoutDelta creates a RIB that records no best-set delta:
// TakeDelta always returns an empty Delta. It is for RIBs nobody pulls
// from, where a recorded delta would only keep the RIB's whole change
// history alive for as long as the result is.
func NewRIBWithoutDelta(cmp Comparator, clock *Clock) *RIB {
	r := NewRIB(cmp, clock)
	r.noDelta = true
	return r
}

// Load installs the best-route sets of an empty RIB in bulk, with no
// comparator run and no delta: routes, in AllBest order, become both the
// candidates and the best set of their prefixes. Clocks are stamped in
// input order, one draw per route. This is the state merging the same
// routes one by one would build when each prefix's routes are equally
// good — true of any best set the RIB itself computed — at a fraction of
// the cost and half the memory: routes become the storage of both. The
// caller must not reuse the slice. Load returns an error, leaving the RIB
// empty, if the RIB is not empty or routes are not in AllBest order
// without duplicates.
func (r *RIB) Load(routes []Route) error {
	if len(r.entries) > 0 {
		return errors.New("routing: Load into a non-empty RIB")
	}
	n, nPrefixes, lo := len(routes), 0, 0
	for i := range routes {
		rt := &routes[i]
		if rt.Prefix != rt.Prefix.Canonical() {
			return errors.New("routing: Load of a non-canonical prefix")
		}
		if i == 0 || rt.Prefix != routes[i-1].Prefix {
			if i > 0 && routes[i-1].Prefix.Compare(rt.Prefix) > 0 {
				return errors.New("routing: Load of routes out of prefix order")
			}
			nPrefixes, lo = nPrefixes+1, i
			continue
		}
		if routeLess(rt, &routes[i-1]) {
			return errors.New("routing: Load of a best set out of route order")
		}
		for j := lo; j < i; j++ {
			if sameIdentity(&routes[j], rt) {
				return errors.New("routing: Load of a duplicate route")
			}
		}
	}
	base := r.clock.t.Add(uint64(n)) - uint64(n)
	for i := range routes {
		routes[i].Clock = base + uint64(i) + 1
	}
	ents := make([]entry, nPrefixes)
	r.entries = make(map[ip4.Prefix]*entry, nPrefixes)
	r.sorted = make([]ip4.Prefix, 0, nPrefixes)
	for i := 0; i < n; {
		j := i + 1
		for j < n && routes[j].Prefix == routes[i].Prefix {
			j++
		}
		// Capacity ends at the prefix, so a Merge's append reallocates
		// instead of writing into the next prefix's routes.
		e := &ents[len(r.sorted)]
		e.candidates = routes[i:j:j]
		e.best = e.candidates
		r.entries[routes[i].Prefix] = e
		r.sorted = append(r.sorted, routes[i].Prefix)
		r.maxCands = max(r.maxCands, j-i)
		i = j
	}
	r.nRoutes, r.sortedValid = n, true
	return nil
}

// Merge adds a candidate route, stamping its Clock. If a candidate with the
// same Key already exists, the merge is a no-op (the existing route keeps
// its original arrival time). Returns true if the best set changed.
func (r *RIB) Merge(rt Route) bool {
	rt.Prefix = rt.Prefix.Canonical()
	e := r.entries[rt.Prefix]
	if e == nil {
		e = &entry{}
		r.entries[rt.Prefix] = e
		r.sortedValid = false
	}
	for i := range e.candidates {
		if sameIdentity(&e.candidates[i], &rt) {
			return false
		}
	}
	rt.Clock = r.clock.Next()
	e.candidates = append(e.candidates, rt)
	r.nRoutes++
	if len(e.candidates) > r.maxCands {
		r.maxCands = len(e.candidates)
	}
	return r.recompute(rt.Prefix, e)
}

// Withdraw removes the candidate with the same Key, if present. Returns
// true if the best set changed.
func (r *RIB) Withdraw(rt Route) bool {
	rt.Prefix = rt.Prefix.Canonical()
	e := r.entries[rt.Prefix]
	if e == nil {
		return false
	}
	for i := range e.candidates {
		if sameIdentity(&e.candidates[i], &rt) {
			e.unshare()
			e.candidates = append(e.candidates[:i], e.candidates[i+1:]...)
			r.nRoutes--
			return r.recompute(rt.Prefix, e)
		}
	}
	return false
}

// RemoveWhere withdraws all candidates for prefix that satisfy pred —
// the implicit-withdraw step when a neighbor re-advertises a prefix.
// Returns true if the best set changed.
func (r *RIB) RemoveWhere(prefix ip4.Prefix, pred func(Route) bool) bool {
	prefix = prefix.Canonical()
	e := r.entries[prefix]
	if e == nil {
		return false
	}
	e.unshare()
	kept := e.candidates[:0]
	removed := 0
	for _, c := range e.candidates {
		if pred(c) {
			removed++
		} else {
			kept = append(kept, c)
		}
	}
	if removed == 0 {
		return false
	}
	e.candidates = kept
	r.nRoutes -= removed
	return r.recompute(prefix, e)
}

// recompute rebuilds the best set for prefix and updates the delta.
// It returns true if the best set changed. The ranking is built in the
// RIB's scratch slice so the no-change path — the overwhelmingly common
// outcome once convergence is under way — performs no allocation; a fresh
// exact-size best slice is allocated only when the set actually changes
// (callers may retain previously returned Best slices).
func (r *RIB) recompute(prefix ip4.Prefix, e *entry) bool {
	best := r.scratch[:0]
	for _, c := range e.candidates {
		if len(best) == 0 {
			best = append(best, c)
			continue
		}
		switch d := r.cmp(c, best[0]); {
		case d > 0:
			best = append(best[:0], c)
		case d == 0:
			best = append(best, c)
		}
	}
	// Canonical order for deterministic output and cheap comparison.
	sortRoutes(best)
	r.scratch = best[:0]
	if routesEqual(best, e.best) {
		return false
	}
	if !r.noDelta {
		// Record best-set changes in the delta (withdrawn first, then
		// added, matching how a router would announce).
		old := e.best
		for i := range old {
			if !containsRoute(best, &old[i]) {
				r.delta.Removed = append(r.delta.Removed, old[i])
			}
		}
		for i := range best {
			if !containsRoute(old, &best[i]) {
				r.delta.Added = append(r.delta.Added, best[i])
			}
		}
	}
	e.best = append([]Route(nil), best...)
	if len(e.candidates) == 0 {
		delete(r.entries, prefix)
		r.sortedValid = false
	}
	return true
}

// routeLess is the canonical best-set order. Total enough for determinism:
// candidates are ranked in per-node merge order, and the insertion sort
// below is stable.
func routeLess(a, b *Route) bool {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c < 0
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	if a.NextHopNode != b.NextHopNode {
		return a.NextHopNode < b.NextHopNode
	}
	if a.NextHopIface != b.NextHopIface {
		return a.NextHopIface < b.NextHopIface
	}
	return a.Protocol < b.Protocol
}

// sortRoutes sorts a best set with a direct insertion sort. Best sets are
// tiny (ECMP width), and sort.Slice's reflective swapper both allocates
// and forces the slice header to escape — measurable on the recompute
// path, which runs once per merge.
func sortRoutes(rs []Route) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && routeLess(&rs[j], &rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// sameIdentity reports whether two routes have equal identity (every field
// except Clock) without materializing Key values: two Key constructions
// per candidate comparison showed up as pure copy overhead (duffcopy) in
// merge-heavy profiles.
func sameIdentity(a, b *Route) bool {
	return a.Prefix == b.Prefix && a.Protocol == b.Protocol &&
		a.NextHop == b.NextHop && a.Metric == b.Metric &&
		a.AD == b.AD && a.Tag == b.Tag && a.Area == b.Area &&
		a.Drop == b.Drop && a.Attrs == b.Attrs &&
		a.NextHopIface == b.NextHopIface && a.NextHopNode == b.NextHopNode
}

func routesEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameIdentity(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func containsRoute(rs []Route, rt *Route) bool {
	for i := range rs {
		if sameIdentity(&rs[i], rt) {
			return true
		}
	}
	return false
}

// TakeDelta returns the accumulated best-set delta and resets it. The
// simulator calls this once per iteration to rotate current → previous.
func (r *RIB) TakeDelta() Delta {
	d := r.delta
	r.delta = Delta{}
	return d
}

// PendingDelta reports whether changes have accumulated since TakeDelta.
func (r *RIB) PendingDelta() bool { return !r.delta.Empty() }

// Best returns the best-route set for prefix (nil if none).
func (r *RIB) Best(prefix ip4.Prefix) []Route {
	if e := r.entries[prefix.Canonical()]; e != nil {
		return e.best
	}
	return nil
}

// Candidates returns all candidate routes for prefix.
func (r *RIB) Candidates(prefix ip4.Prefix) []Route {
	if e := r.entries[prefix.Canonical()]; e != nil {
		return e.candidates
	}
	return nil
}

// Prefixes returns all prefixes with at least one candidate, sorted. The
// returned slice is a cached snapshot: it must not be modified, but it
// remains valid (as of the time of the call) across subsequent RIB
// mutations — invalidation rebuilds a fresh slice rather than mutating
// the old one.
func (r *RIB) Prefixes() []ip4.Prefix {
	if r.sortedValid {
		return r.sorted
	}
	out := make([]ip4.Prefix, 0, len(r.entries))
	for p := range r.entries {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	r.sorted, r.sortedValid = out, true
	return out
}

// AllBest returns every best route in canonical prefix order.
func (r *RIB) AllBest() []Route {
	ps := r.Prefixes()
	if len(ps) == 0 {
		return nil
	}
	out := make([]Route, 0, len(ps)) // every prefix has a best route
	for _, p := range ps {
		out = append(out, r.entries[p].best...)
	}
	return out
}

// LongestMatch returns the best-route set for the longest prefix
// containing a, or nil. RIB lookup is linear in prefix lengths; the FIB
// (package fib) provides the trie used on the forwarding path.
func (r *RIB) LongestMatch(a ip4.Addr) []Route {
	for l := 32; l >= 0; l-- {
		p := ip4.Prefix{Addr: a, Len: uint8(l)}.Canonical()
		if e, ok := r.entries[p]; ok && len(e.best) > 0 {
			return e.best
		}
	}
	return nil
}

// Size returns the number of best routes across all prefixes.
func (r *RIB) Size() int {
	n := 0
	for _, e := range r.entries {
		n += len(e.best)
	}
	return n
}

// CandidateCount returns the total number of candidates held.
func (r *RIB) CandidateCount() int { return r.nRoutes }

// StateHash returns a hash of the best-route sets, used by the simulator
// to detect oscillation (non-convergence, §4.1.2).
func (r *RIB) StateHash() uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, p := range r.Prefixes() {
		mix(uint64(p.Addr)<<8 | uint64(p.Len))
		for _, rt := range r.entries[p].best {
			mix(uint64(rt.NextHop))
			mix(uint64(rt.Protocol)<<32 | uint64(rt.Metric))
			mix(uint64(rt.AD))
			for _, ch := range rt.NextHopNode {
				mix(uint64(ch))
			}
			if rt.Attrs != nil {
				mix(uint64(rt.Attrs.LocalPref)<<16 ^ uint64(rt.Attrs.MED))
				for _, ch := range rt.Attrs.ASPath.asns {
					mix(uint64(ch))
				}
			}
		}
	}
	return h
}

// MainComparator orders routes for the main RIB: lower administrative
// distance wins; within the same protocol, lower metric wins; routes from
// different protocols with equal AD and different metrics are incomparable
// and treated as equally good only if metrics match.
func MainComparator(a, b Route) int {
	if a.AD != b.AD {
		return int(b.AD) - int(a.AD)
	}
	if a.Protocol != b.Protocol {
		return int(b.Protocol) - int(a.Protocol)
	}
	if a.Metric != b.Metric {
		if a.Metric < b.Metric {
			return 1
		}
		return -1
	}
	return 0
}

// OSPFComparator orders OSPF routes: intra-area > inter-area > E1 > E2,
// then lower cost; equal-cost routes are ECMP.
func OSPFComparator(a, b Route) int {
	if a.Protocol != b.Protocol {
		return int(b.Protocol) - int(a.Protocol) // OSPF < OSPFIA < ... so smaller enum preferred
	}
	if a.Metric != b.Metric {
		if a.Metric < b.Metric {
			return 1
		}
		return -1
	}
	return 0
}

// ConnectedComparator treats all connected/static candidates for the same
// prefix as equally good (resolution happens in the main RIB).
func ConnectedComparator(a, b Route) int {
	if a.Metric != b.Metric {
		if a.Metric < b.Metric {
			return 1
		}
		return -1
	}
	return 0
}
