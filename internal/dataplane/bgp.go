package dataplane

import (
	"sort"

	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/policy"
	"repro/internal/routing"
)

const (
	defaultLocalPref  = 100
	localOriginWeight = 32768 // Cisco weight for locally originated routes
	unreachableIGP    = 1 << 30
)

var zeroAttrs = routing.BGPAttrs{}

func attrsOf(r routing.Route) *routing.BGPAttrs {
	if r.Attrs != nil {
		return r.Attrs
	}
	return &zeroAttrs
}

// bgpCmp builds the BGP decision process comparator for one VRF
// (paper §4.1.2: logical clocks "tie break routing advertisements based on
// arrival time, like routers do").
func (e *Engine) bgpCmp(vs *VRFState) routing.Comparator {
	return func(a, b routing.Route) int {
		aa, ab := attrsOf(a), attrsOf(b)
		// 1. Highest weight.
		if aa.Weight != ab.Weight {
			return int(int64(aa.Weight) - int64(ab.Weight))
		}
		// 2. Highest local preference.
		if aa.LocalPref != ab.LocalPref {
			return int(int64(aa.LocalPref) - int64(ab.LocalPref))
		}
		// 3. Locally originated.
		aLocal, bLocal := a.NextHopNode == "", b.NextHopNode == ""
		if aLocal != bLocal {
			if aLocal {
				return 1
			}
			return -1
		}
		// 4. Shortest AS path.
		if la, lb := aa.ASPath.Len(), ab.ASPath.Len(); la != lb {
			return lb - la
		}
		// 5. Lowest origin.
		if aa.Origin != ab.Origin {
			return int(ab.Origin) - int(aa.Origin)
		}
		// 6. Lowest MED (deterministic-MED: always compared, the
		// order-independent variant).
		if aa.MED != ab.MED {
			return int(int64(ab.MED) - int64(aa.MED))
		}
		// 7. eBGP over iBGP.
		if a.Protocol != b.Protocol {
			if a.Protocol == routing.EBGP {
				return 1
			}
			return -1
		}
		// 8. Lowest IGP metric to next hop.
		if aa.IGPMetric != ab.IGPMetric {
			return int(int64(ab.IGPMetric) - int64(aa.IGPMetric))
		}
		// 9. Multipath: everything above equal => ECMP when enabled.
		if a.Protocol == routing.EBGP && vs.multipathEBGP {
			return 0
		}
		if a.Protocol == routing.IBGP && vs.multipathIBGP {
			return 0
		}
		// 10. Oldest path (logical clock) for eBGP.
		if a.Protocol == routing.EBGP && a.Clock != b.Clock {
			if a.Clock < b.Clock {
				return 1
			}
			return -1
		}
		// 11. Lowest originator/neighbor router id, then neighbor IP.
		if aa.OriginatorID != ab.OriginatorID {
			if aa.OriginatorID < ab.OriginatorID {
				return 1
			}
			return -1
		}
		if aa.ReceivedFrom != ab.ReceivedFrom {
			if aa.ReceivedFrom < ab.ReceivedFrom {
				return 1
			}
			return -1
		}
		return 0
	}
}

// establishSessions recomputes all BGP sessions from configuration and the
// current data plane. Both compatibility (mirrored neighbor statements,
// matching AS numbers — the BGP session compatibility analysis of Lesson 5)
// and viability (TCP reachability through ACLs) gate the Up state.
func (e *Engine) establishSessions() {
	e.res.Sessions = nil
	e.forEachVRF(func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
		vs.Sessions = nil
		if cv.BGP == nil {
			return
		}
		vs.multipathEBGP = cv.BGP.MultipathEBGP
		vs.multipathIBGP = cv.BGP.MultipathIBGP
	})
	// Session construction is per-device independent: it reads only
	// immutable config, the IP-ownership index, and the already-built FIBs
	// (for TCP viability walks), and writes only the local VRF's session
	// list — so devices fan out over the worker pool.
	e.runPhase("sessions", e.names, func(node string) {
		d := e.net.Devices[node]
		ns := e.nodes[node]
		for _, vn := range sortedVRFNames(ns) {
			cv := d.VRFs[vn]
			vs := ns.VRFs[vn]
			if cv == nil || cv.BGP == nil {
				continue
			}
			for _, n := range cv.BGP.Neighbors {
				s := &Session{
					LocalNode: node, LocalVRF: cv.Name, LocalAS: cv.BGP.ASN,
					PeerIP: n.PeerIP, PeerAS: n.RemoteAS, Neighbor: n,
				}
				s.LocalIP = ns.idx.sourceIP(d, cv.Name, n)
				s.EBGP = n.RemoteAS != cv.BGP.ASN
				if s.LocalIP == 0 {
					s.DownReason = "no local source IP"
					vs.Sessions = append(vs.Sessions, s)
					continue
				}
				// Find the compatible remote end.
				peerNode, peerVRF, why := e.findPeer(s)
				if peerNode == "" {
					s.DownReason = why
					vs.Sessions = append(vs.Sessions, s)
					continue
				}
				s.PeerNode, s.PeerVRF = peerNode, peerVRF
				// Scenario hold-down dominates viability: a session the
				// failure overlay removes stays down no matter what the
				// data plane says.
				if e.sessDown[s.Key()] {
					s.DownReason = ScenarioDownReason
					vs.Sessions = append(vs.Sessions, s)
					continue
				}
				// Single-hop eBGP requires the peer on a connected subnet.
				if s.EBGP && !n.EBGPMultihop {
					if _, ok := e.connIface(node, cv.Name, n.PeerIP); !ok {
						s.DownReason = "eBGP peer not connected (no multihop)"
						vs.Sessions = append(vs.Sessions, s)
						continue
					}
				}
				if ok, why := e.sessionViable(s); !ok {
					s.DownReason = why
					vs.Sessions = append(vs.Sessions, s)
					continue
				}
				s.Up = true
				vs.Sessions = append(vs.Sessions, s)
			}
		}
	})
	// Collect the global session list (each direction once).
	e.forEachVRF(func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
		e.res.Sessions = append(e.res.Sessions, vs.Sessions...)
	})
}

// findPeer locates a device owning the peer IP whose BGP config mirrors
// this session. Returns a reason when incompatible.
func (e *Engine) findPeer(s *Session) (node, vrf, why string) {
	refs := e.ownerOf(s.PeerIP)
	if len(refs) == 0 {
		return "", "", "peer IP not owned by any device"
	}
	why = "peer has no mirrored neighbor statement"
	for _, ref := range refs {
		rd := e.net.Devices[ref.node]
		rv := rd.VRFs[ref.vrf]
		if rv == nil || rv.BGP == nil {
			why = "peer device has no BGP process"
			continue
		}
		if rv.BGP.ASN != s.PeerAS {
			why = "remote-as mismatch"
			continue
		}
		for _, rn := range rv.BGP.Neighbors {
			if rn.PeerIP != s.LocalIP {
				continue
			}
			if rn.RemoteAS != s.LocalAS {
				why = "peer's remote-as does not match local AS"
				continue
			}
			return ref.node, ref.vrf, ""
		}
	}
	return "", "", why
}

// recheckSessions re-evaluates viability of every session against the
// final data plane; returns true if any session's state would flip.
func (e *Engine) recheckSessions() bool {
	changed := false
	for _, s := range e.res.Sessions {
		if s.PeerNode == "" {
			continue // incompatible sessions never flip from viability
		}
		if s.DownReason == ScenarioDownReason {
			// Scenario-suppressed sessions are viable but deliberately
			// down; re-checking viability would flip them every round and
			// burn the outer loop without converging.
			continue
		}
		viable := true
		if s.EBGP && !s.Neighbor.EBGPMultihop {
			if _, ok := e.connIface(s.LocalNode, s.LocalVRF, s.PeerIP); !ok {
				viable = false
			}
		}
		if viable {
			viable, _ = e.sessionViable(s)
		}
		if viable != s.Up {
			changed = true
		}
	}
	return changed
}

// seedBGPOriginations installs locally originated routes (network
// statements and redistribution) into the BGP RIB. Nodes seed in
// parallel: each reads and writes only its own RIBs (the intern pool is
// concurrency-safe), stamping from its own clock.
func (e *Engine) seedBGPOriginations() {
	e.runPhase("bgp/seed", e.names, func(node string) {
		e.forEachVRFOf(node, e.seedBGPNode)
	})
}

func (e *Engine) seedBGPNode(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
	{
		if cv.BGP == nil {
			return
		}
		env := policy.Env{Device: d, Pool: e.pool}
		routerID := cv.BGP.RouterID
		if routerID == 0 {
			routerID = e.autoRouterID(d)
		}
		originate := func(src routing.Route, origin routing.Origin, rm string, med uint32) {
			v := policy.ViewOf(src)
			v.MED = med
			if res := env.Eval(rm, &v); !res.Permit {
				return
			}
			attrs := e.pool.Attrs(&routing.BGPAttrs{
				AdminDistance: routing.IBGP.DefaultAdminDistance(),
				LocalPref:     defaultLocalPref,
				Weight:        localOriginWeight,
				Origin:        origin,
				MED:           v.MED,
				ASPath:        e.pool.ASPath(),
				Communities:   v.Communities,
				OriginatorID:  routerID,
				SrcProtocol:   src.Protocol,
				Tag:           v.Tag,
			})
			vs.BGPRIB.Merge(routing.Route{
				Prefix:   src.Prefix,
				Protocol: routing.IBGP, // locally originated; not exported to main
				Metric:   v.MED,
				AD:       routing.IBGP.DefaultAdminDistance(),
				Attrs:    attrs,
			})
		}
		for _, p := range cv.BGP.Networks {
			if !e.inScope.keep(p) {
				continue
			}
			// Network statements require a matching main-RIB route.
			for _, rt := range vs.Main.Best(p) {
				originate(rt, routing.OriginIGP, "", 0)
				break
			}
		}
		for _, rd := range cv.BGP.Redistribute {
			var sources []routing.Route
			switch rd.From {
			case config.RedistConnected:
				sources = vs.ConnRIB.AllBest()
			case config.RedistStatic:
				sources = vs.StatRIB.AllBest()
			case config.RedistOSPF:
				sources = vs.OSPFRIB.AllBest()
			default:
				continue
			}
			for _, src := range sources {
				if src.Protocol == routing.Local || !e.inScope.keep(src.Prefix) {
					continue
				}
				originate(src, routing.OriginIncomplete, rd.RouteMap, rd.Metric)
			}
		}
	}
}

// autoRouterID picks the highest interface IP, mirroring IOS behavior.
func (e *Engine) autoRouterID(d *config.Device) ip4.Addr {
	var best ip4.Addr
	for _, i := range d.Interfaces {
		if !i.Active {
			continue
		}
		for _, p := range i.Addresses {
			if p.Addr > best {
				best = p.Addr
			}
		}
	}
	return best
}

// exportRoute applies sender-side processing of route r over session s
// (s.LocalNode is the *sender*). Deterministic: withdrawal handling
// re-derives the same route.
func (e *Engine) exportRoute(s *Session, senderVS *VRFState, r routing.Route) (routing.Route, bool) {
	senderDev := e.net.Devices[s.LocalNode]
	a := attrsOf(r)
	// iBGP-learned routes are not re-advertised to iBGP peers (no route
	// reflection in the model; full iBGP meshes are required and the BGP
	// compatibility analysis flags incomplete ones).
	learnedIBGP := r.Protocol == routing.IBGP && r.NextHopNode != ""
	if learnedIBGP && !s.EBGP {
		return routing.Route{}, false
	}
	// Sender-side loop prevention.
	if s.EBGP && a.ASPath.Contains(s.PeerAS) {
		return routing.Route{}, false
	}
	v := policy.ViewOf(r)
	env := policy.Env{Device: senderDev, Pool: e.pool}
	if res := env.Eval(s.Neighbor.ExportPolicy, &v); !res.Permit {
		return routing.Route{}, false
	}
	out := routing.Route{Prefix: r.Prefix}
	outAttrs := routing.BGPAttrs{
		Origin:      v.Origin,
		MED:         v.MED,
		Communities: v.Communities,
	}
	if !s.Neighbor.SendCommunity {
		outAttrs.Communities = e.pool.CommunitySet()
	}
	if s.EBGP {
		outAttrs.ASPath = e.pool.Prepend(v.ASPath, s.LocalAS, 1)
		out.NextHop = s.LocalIP
		// LocalPref is not carried over eBGP.
		outAttrs.LocalPref = 0
	} else {
		outAttrs.ASPath = v.ASPath
		outAttrs.LocalPref = v.LocalPref
		out.NextHop = v.NextHop
		if out.NextHop == 0 || s.Neighbor.NextHopSelf {
			out.NextHop = s.LocalIP
		}
	}
	out.Attrs = e.pool.Attrs(&outAttrs)
	return out, true
}

// importRoute applies receiver-side processing at the session's *peer* end
// (u receives what s.LocalNode exported). s here is u's own session object.
func (e *Engine) importRoute(s *Session, recvVS *VRFState, r routing.Route) (routing.Route, bool) {
	recvDev := e.net.Devices[s.LocalNode]
	a := attrsOf(r)
	// Receiver-side loop prevention.
	if s.EBGP && a.ASPath.Contains(s.LocalAS) {
		return routing.Route{}, false
	}
	v := policy.ViewOf(r)
	v.LocalPref = a.LocalPref
	if s.EBGP || v.LocalPref == 0 {
		v.LocalPref = defaultLocalPref
	}
	v.Weight = 0
	env := policy.Env{Device: recvDev, Pool: e.pool}
	if res := env.Eval(s.Neighbor.ImportPolicy, &v); !res.Permit {
		return routing.Route{}, false
	}
	proto := routing.IBGP
	if s.EBGP {
		proto = routing.EBGP
	}
	nh := v.NextHop
	if nh == 0 {
		nh = r.NextHop
	}
	igp, reachable := e.igpMetricTo(s.LocalNode, recvVS, nh)
	if !reachable {
		return routing.Route{}, false
	}
	attrs := e.pool.Attrs(&routing.BGPAttrs{
		AdminDistance: proto.DefaultAdminDistance(),
		LocalPref:     v.LocalPref,
		MED:           v.MED,
		Weight:        v.Weight,
		Origin:        v.Origin,
		ASPath:        v.ASPath,
		Communities:   v.Communities,
		ReceivedFrom:  s.PeerIP,
		OriginatorID:  s.PeerIP,
		FromAS:        s.PeerAS,
		IGPMetric:     igp,
	})
	return routing.Route{
		Prefix:      r.Prefix,
		Protocol:    proto,
		NextHop:     nh,
		NextHopNode: s.PeerNode,
		Metric:      v.MED,
		AD:          proto.DefaultAdminDistance(),
		Attrs:       attrs,
	}, true
}

// igpMetricTo resolves the IGP cost to a BGP next hop using only
// IGP/connected/static state (stable during the BGP phase, so withdrawal
// re-derivation stays deterministic).
func (e *Engine) igpMetricTo(node string, vs *VRFState, nh ip4.Addr) (uint32, bool) {
	if nh == 0 {
		return 0, true
	}
	if _, ok := e.connIface(node, vs.Name, nh); ok {
		return 0, true
	}
	if rts := vs.OSPFRIB.LongestMatch(nh); len(rts) > 0 {
		return rts[0].Metric, true
	}
	if rts := vs.StatRIB.LongestMatch(nh); len(rts) > 0 {
		return 0, true
	}
	return unreachableIGP, false
}

// runBGP resets BGP state and runs the exchange to convergence. Returns
// false on non-convergence.
func (e *Engine) runBGP() bool {
	// Reset from any previous outer round. Per-node independent: each node
	// rebuilds its own BGP RIB (on its own clock) and strips BGP routes
	// from its own main RIB.
	e.runPhase("bgp/reset", e.names, func(node string) {
		clock := &e.nodes[node].clock
		e.forEachVRFOf(node, func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
			vs.BGPRIB = routing.NewRIB(e.bgpCmp(vs), clock)
			vs.bgpPublished = routing.Delta{}
			for _, p := range vs.Main.Prefixes() {
				vs.Main.RemoveWhere(p, func(rt routing.Route) bool { return rt.Protocol.IsBGP() })
			}
		})
	})
	e.seedBGPOriginations()

	// Build the session graph for scheduling.
	type sessEnd struct {
		vs *VRFState
		s  *Session
	}
	byNode := make(map[string][]sessEnd)
	nodeSet := make(map[string]bool)
	var edges [][2]string
	e.forEachVRF(func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
		if cv.BGP != nil {
			nodeSet[node] = true
		}
		for _, s := range vs.Sessions {
			if !s.Up {
				continue
			}
			byNode[node] = append(byNode[node], sessEnd{vs: vs, s: s})
			nodeSet[node] = true
			nodeSet[s.PeerNode] = true
			edges = append(edges, [2]string{node, s.PeerNode})
		}
	})
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	if len(nodes) == 0 {
		return true
	}

	process := func(u string) bool {
		changed := false
		for _, se := range byNode[u] {
			peerVS := e.vrf(se.s.PeerNode, se.s.PeerVRF)
			d := peerVS.bgpPublished
			// The peer's session object mirrors ours; exports run with the
			// peer as sender.
			peerSess := e.mirrorSession(se.s)
			if peerSess == nil {
				continue
			}
			for _, r := range d.Removed {
				if exp, ok := e.exportRoute(peerSess, peerVS, r); ok {
					if imp, ok := e.importRoute(se.s, se.vs, exp); ok {
						if se.vs.BGPRIB.Withdraw(imp) {
							changed = true
						}
					}
				}
			}
			for _, r := range d.Added {
				if exp, ok := e.exportRoute(peerSess, peerVS, r); ok {
					if imp, ok := e.importRoute(se.s, se.vs, exp); ok {
						if se.vs.BGPRIB.Merge(imp) {
							changed = true
						}
					}
				}
			}
		}
		return changed
	}
	publish := func(u string) bool {
		any := false
		// Sorted VRF order: applyBGPToMain draws logical clocks from the
		// shared engine clock, and map order would interleave draws across
		// VRFs differently run to run (clocks persist in artifacts).
		for _, vn := range sortedVRFNames(e.nodes[u]) {
			vs := e.nodes[u].VRFs[vn]
			d := vs.BGPRIB.TakeDelta()
			vs.bgpPublished = d
			e.applyBGPToMain(vs, d)
			if !d.Empty() {
				any = true
			}
		}
		return any
	}

	converged := e.exchangeLoop("bgp", nodes, edges, process, publish, func() uint64 {
		return e.ribStateHash("bgp/hash", func(vs *VRFState) *routing.RIB { return vs.BGPRIB })
	}, &e.res.BGPIterations)
	// Flush pending deltas of nodes that never ran (no up sessions).
	e.runPhase("bgp/flush", e.names, func(node string) {
		e.forEachVRFOf(node, func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
			if vs.BGPRIB.PendingDelta() {
				dd := vs.BGPRIB.TakeDelta()
				vs.bgpPublished = dd
				e.applyBGPToMain(vs, dd)
			}
		})
	})
	return converged
}

// mirrorSession finds the peer's session object corresponding to s.
func (e *Engine) mirrorSession(s *Session) *Session {
	peerVS := e.vrf(s.PeerNode, s.PeerVRF)
	for _, ps := range peerVS.Sessions {
		if ps.PeerNode == s.LocalNode && ps.PeerIP == s.LocalIP && ps.LocalIP == s.PeerIP {
			return ps
		}
	}
	return nil
}

// applyBGPToMain merges BGP best-set changes into the main RIB, skipping
// locally originated entries (their prefixes are already covered by the
// source protocol's route).
func (e *Engine) applyBGPToMain(vs *VRFState, d routing.Delta) {
	for _, r := range d.Removed {
		if r.NextHopNode == "" {
			continue
		}
		vs.Main.Withdraw(r)
	}
	for _, r := range d.Added {
		if r.NextHopNode == "" {
			continue
		}
		vs.Main.Merge(r)
	}
}
