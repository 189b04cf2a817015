package dataplane

// Incremental data plane for origination-only edits (DESIGN §8,
// "Incremental edits"). An edit that changes only static routes and BGP
// network statements changes the origination of the prefixes in the
// symmetric difference of those statements, Q, and nothing else. The
// engine computes every prefix's routes from that prefix's own routes
// except at the lookups of the dependency set D (scope.go); when no
// address of D lies inside a prefix of Q, those lookups answer as they
// did before the edit, so every prefix not in Q — a supernet or subnet of
// one included — keeps its routes and FIB entry exactly. Update therefore
// simulates the edited network scoped to Q — whose routes for Q equal the
// full run's, by the scope's own argument — and splices that run's state
// for the prefixes of Q into the base's.

import (
	"context"
	"reflect"
	"slices"

	"repro/internal/config"
	"repro/internal/fib"
	"repro/internal/ip4"
	"repro/internal/routing"
)

// Update computes the data plane of net from base, the data plane of the
// network net was edited from, and reports whether it could. It can when
//
//   - every device of net is base's device (the same pointer) or differs
//     from it only in its VRFs' static routes and BGP network statements;
//   - base is unscoped, converged, free of oscillation, diagnostics and
//     warnings, and was computed under opts' Suppress (the caller
//     guarantees the other simulation options are the ones base ran with);
//   - opts is unscoped and the edit changes at least one prefix; and
//   - no address of the dependency set D — of the edited network, or a
//     next hop of a removed static — lies inside an edited prefix, and the
//     scoped run of the edit converges cleanly with base's sessions.
//
// The scoped run starts from base (RunFrom), so every unedited device
// takes base's topology, index and connected state. The result equals
// RunContext(ctx, net, opts) in every node fingerprint, session and
// convergence flag; its iteration counts and Pool are the scoped run's,
// the work it actually did. Nodes whose device and state the edit leaves
// alone share base's NodeState. When Update reports false the caller
// runs RunFrom, whose result is RunContext's.
func Update(ctx context.Context, base *Result, net *config.Network, opts Options) (*Result, bool) {
	if len(base.Scope) > 0 || len(opts.Scope) > 0 || !cleanRun(base) ||
		base.Suppress.CacheKey() != opts.Suppress.CacheKey() {
		return nil, false
	}
	q, hops, ok := editedPrefixes(base.Network, net)
	if !ok || len(q) == 0 {
		return nil, false
	}
	opts.Scope = q
	e := newEngine(ctx, base, net, opts)
	if e.scope.holdsAny(e.inScope.deps) || e.scope.holdsAny(hops) {
		return nil, false
	}
	sr := e.Run()
	if !cleanRun(sr) || !sameSessions(base.Sessions, sr.Sessions) {
		return nil, false
	}
	out := &Result{
		Network:       net,
		Topology:      sr.Topology,
		Nodes:         make(map[string]*NodeState, len(sr.Nodes)),
		Pool:          sr.Pool,
		Converged:     true,
		IGPIterations: sr.IGPIterations,
		BGPIterations: sr.BGPIterations,
		OuterRounds:   sr.OuterRounds,
		Sessions:      sr.Sessions,
		Suppress:      sr.Suppress,
	}
	for name, sns := range sr.Nodes {
		bns := base.Nodes[name]
		if bns == nil {
			return nil, false
		}
		if bns.Device == sns.Device && sameAtQ(bns, sns, e.scope) {
			out.Nodes[name] = bns
			continue
		}
		ns, ok := e.splice(bns, sns)
		if !ok {
			return nil, false
		}
		out.Nodes[name] = ns
	}
	return out, true
}

// cleanRun reports whether r is a converged run with nothing to report:
// the only kind of run Update starts from or splices in.
func cleanRun(r *Result) bool {
	return r.Converged && !r.Oscillation && !r.Degraded() && len(r.Warnings) == 0
}

// editedPrefixes returns the prefixes whose origination differs between
// the networks — the symmetric difference, per VRF, of the static routes
// and of the BGP network statements, each counted as a multiset — and the
// next hops of the differing static routes. It reports false when a
// device was added or removed, or differs in anything else. RawLines and
// Refs are ignored: the engine reads neither.
func editedPrefixes(old, cur *config.Network) (Scope, []ip4.Addr, bool) {
	if len(old.Devices) != len(cur.Devices) {
		return nil, nil, false
	}
	var q Scope
	var hops []ip4.Addr
	for name, nd := range cur.Devices {
		od := old.Devices[name]
		if od == nil {
			return nil, nil, false
		}
		if od == nd {
			continue
		}
		if !reflect.DeepEqual(withoutOrigination(od), withoutOrigination(nd)) {
			return nil, nil, false
		}
		for vn, nv := range nd.VRFs {
			ov := od.VRFs[vn]
			statics := make(map[config.StaticRoute]int)
			for _, sr := range ov.StaticRoutes {
				statics[sr]++
			}
			for _, sr := range nv.StaticRoutes {
				statics[sr]--
			}
			for sr, n := range statics {
				if n != 0 {
					q = append(q, sr.Prefix)
					hops = append(hops, sr.NextHop)
				}
			}
			networks := make(map[ip4.Prefix]int)
			if ov.BGP != nil {
				for _, p := range ov.BGP.Networks {
					networks[p]++
				}
			}
			if nv.BGP != nil {
				for _, p := range nv.BGP.Networks {
					networks[p]--
				}
			}
			for p, n := range networks {
				if n != 0 {
					q = append(q, p)
				}
			}
		}
	}
	slices.SortFunc(q, ip4.Prefix.Compare) // map order must not leak out
	slices.Sort(hops)
	return q.Canonical(), hops, true
}

// withoutOrigination returns a copy of d with the fields an
// origination-only edit may change cleared, for comparison.
func withoutOrigination(d *config.Device) config.Device {
	c := *d
	c.RawLines, c.Refs = 0, nil
	c.VRFs = make(map[string]*config.VRF, len(d.VRFs))
	for n, v := range d.VRFs {
		cv := *v
		cv.StaticRoutes = nil
		if v.BGP != nil {
			bgp := *v.BGP
			bgp.Networks = nil
			cv.BGP = &bgp
		}
		c.VRFs[n] = &cv
	}
	return c
}

// holdsAny reports whether some address of addrs lies inside a prefix of
// s. The zero address (no next hop) never counts.
func (s Scope) holdsAny(addrs []ip4.Addr) bool {
	for _, a := range addrs {
		if a != 0 && slices.ContainsFunc(s, func(q ip4.Prefix) bool { return q.Contains(a) }) {
			return true
		}
	}
	return false
}

// has reports whether p is a prefix of the canonical scope s.
func (s Scope) has(p ip4.Prefix) bool {
	_, ok := slices.BinarySearchFunc(s, p, ip4.Prefix.Compare)
	return ok
}

// sameSessions reports whether two session lists agree in order and in
// every field but the configuration pointer.
func sameSessions(a, b []*Session) bool {
	return slices.EqualFunc(a, b, func(x, y *Session) bool {
		sx, sy := *x, *y
		sx.Neighbor, sy.Neighbor = nil, nil
		return sx == sy
	})
}

// sameAtQ reports whether two states of one node agree, in every VRF, on
// the best routes of all five RIBs and the FIB entry for each prefix of q.
func sameAtQ(b, s *NodeState, q Scope) bool {
	if !slices.Equal(b.vrfNames, s.vrfNames) {
		return false
	}
	for _, vn := range s.vrfNames {
		bvs, svs := b.VRFs[vn], s.VRFs[vn]
		if bvs.FIB == nil || svs.FIB == nil {
			return false
		}
		bribs, sribs := bvs.ribs(), svs.ribs()
		for _, p := range q {
			for i := range sribs {
				if !slices.EqualFunc(bribs[i].Best(p), sribs[i].Best(p), sameRoute) {
					return false
				}
			}
			if !sameEntry(bvs.FIB.Exact(p), svs.FIB.Exact(p)) {
				return false
			}
		}
	}
	return true
}

// splice builds a node's state from the scoped run's routes and FIB
// entries for the prefixes of the scope and base's for every other
// prefix, the way the persist decoder builds one: every RIB by Load, the
// FIB by inserts. The ConnRIB and the device index are the scoped run's
// own: connected routes read neither the scope nor an origination edit.
func (e *Engine) splice(b, s *NodeState) (*NodeState, bool) {
	ns := &NodeState{Device: s.Device, VRFs: make(map[string]*VRFState, len(s.VRFs)), vrfNames: s.vrfNames, idx: s.idx}
	for _, vn := range s.vrfNames {
		bvs, svs := b.VRFs[vn], s.VRFs[vn]
		if bvs == nil || bvs.FIB == nil || svs.FIB == nil {
			return nil, false
		}
		vs := e.newVRFState(vn, &ns.clock)
		vs.ConnRIB = svs.ConnRIB
		vs.multipathEBGP, vs.multipathIBGP = svs.multipathEBGP, svs.multipathIBGP
		vs.Sessions = svs.Sessions
		bribs, sribs, ribs := bvs.ribs(), svs.ribs(), vs.ribs()
		for i := 1; i < len(ribs); i++ { // ribs[0] is the ConnRIB
			rib := ribs[i]
			var routes []routing.Route
			for _, p := range bribs[i].Prefixes() {
				if !e.scope.has(p) {
					routes = append(routes, bribs[i].Best(p)...)
				}
			}
			for _, p := range e.scope {
				routes = append(routes, sribs[i].Best(p)...)
			}
			slices.SortStableFunc(routes, func(x, y routing.Route) int { return x.Prefix.Compare(y.Prefix) })
			if rib.Load(routes) != nil {
				return nil, false
			}
		}
		vs.FIB = fib.New()
		for _, ent := range bvs.FIB.Entries() {
			if !e.scope.has(ent.Prefix) {
				vs.FIB.Add(fib.Entry{Prefix: ent.Prefix, NextHops: slices.Clone(ent.NextHops)})
			}
		}
		for _, p := range e.scope {
			if ent := svs.FIB.Exact(p); ent != nil {
				vs.FIB.Add(fib.Entry{Prefix: p, NextHops: slices.Clone(ent.NextHops)})
			}
		}
		ns.VRFs[vn] = vs
	}
	return ns, true
}

// sameRoute compares route identity with attributes by value: the two
// runs intern attributes in different pools.
func sameRoute(a, b routing.Route) bool {
	if (a.Attrs == nil) != (b.Attrs == nil) || a.Attrs != nil && *a.Attrs != *b.Attrs {
		return false
	}
	a.Attrs, b.Attrs, a.Clock, b.Clock = nil, nil, 0, 0
	return a == b
}

// sameEntry compares two FIB entries, either of which may be absent.
func sameEntry(a, b *fib.Entry) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Prefix == b.Prefix && slices.Equal(a.NextHops, b.NextHops)
}
