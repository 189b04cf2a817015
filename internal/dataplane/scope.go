package dataplane

// Query scope: the simulation-level half of Plankton's packet equivalence
// classes (PAPERS.md). A question that reads only the destinations in a
// scope Q needs routes only for the prefixes those destinations can match,
// plus the prefixes the engine itself reads across prefixes while
// computing them. A scoped run originates exactly those prefixes, so the
// exchange loops, the FIB, the forwarding graph and the reach fixpoint all
// shrink with the seeds.
//
// Soundness (DESIGN §8). Every route for prefix P is computed from routes
// for P, except where the engine reads another prefix at a next-hop or
// session address: igpMetricTo and the FIB's recursive resolution look up
// next hops, staticViable a static's next hop, and sessionViable walks a
// TCP packet to each end of a BGP session. Every next hop the engine can
// produce is a BGP session address, a static next hop or a route-map
// `set ip next-hop` constant (OSPF externals copy their source's;
// OSPF-learned and connected next hops carry an interface and resolve
// without a lookup), so the dependency set D of those addresses, read
// from configuration alone, is closed. Keeping every prefix that contains
// an address in D keeps every such lookup's answer, and with it every
// route for the kept prefixes, exactly as the full run computes it. A
// future engine read across prefixes must extend D.

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/ip4"
)

// Scope is the set of destination prefixes a scoped run simulates for.
// The empty scope is the full run.
type Scope []ip4.Prefix

// Canonical returns the scope masked, sorted and deduplicated (nil when
// empty). Cache keys and persisted results hold the canonical form.
func (s Scope) Canonical() Scope {
	if len(s) == 0 {
		return nil
	}
	out := make(Scope, len(s))
	for i, p := range s {
		out[i] = p.Canonical()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return dedupSlice(out)
}

// CacheKey serializes the canonical scope for content-addressed artifact
// keys; the empty scope yields "" so unscoped keys are unchanged.
func (s Scope) CacheKey() string {
	c := s.Canonical()
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = p.String()
	}
	return strings.Join(parts, ",")
}

// scopeFilter decides which prefixes a scoped run originates: a prefix
// is kept when it overlaps one of ranges (the scope's prefixes and every
// destination-NAT pool, since a translated packet leaves Q) or contains
// an address of deps (the dependency set D, sorted). A nil filter keeps
// everything.
type scopeFilter struct {
	ranges [][2]ip4.Addr
	deps   []ip4.Addr
}

// keep reports whether a route for p is simulated.
func (f *scopeFilter) keep(p ip4.Prefix) bool {
	if f == nil {
		return true
	}
	lo, hi := p.First(), p.Last()
	for _, r := range f.ranges {
		if lo <= r[1] && r[0] <= hi {
			return true
		}
	}
	i := sort.Search(len(f.deps), func(i int) bool { return f.deps[i] >= lo })
	return i < len(f.deps) && f.deps[i] <= hi
}

// newScopeFilter builds the run's filter from the canonical scope and the
// D addresses and destination-NAT pools of exactly the devices in the run
// (devIndex), so a scoped result stays a function of its cache key. It
// returns nil for the empty scope.
func (e *Engine) newScopeFilter(scope Scope) *scopeFilter {
	if len(scope) == 0 {
		return nil
	}
	f := &scopeFilter{}
	for _, q := range scope {
		f.ranges = append(f.ranges, [2]ip4.Addr{q.First(), q.Last()})
	}
	var deps []ip4.Addr
	for _, name := range e.names {
		idx := e.nodes[name].idx
		f.ranges = append(f.ranges, idx.natPools...)
		deps = append(deps, idx.deps...)
	}
	slices.Sort(deps)
	deps = dedupSlice(deps)
	if len(deps) > 0 && deps[0] == 0 {
		deps = deps[1:] // no next hop, or no session source address
	}
	f.deps = deps
	return f
}
