package dataplane

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/policy"
	"repro/internal/routing"
	"repro/internal/topo"
)

// ospfAdj is one OSPF adjacency: node u's interface iu toward node v's
// interface iv, within one area and VRF.
type ospfAdj struct {
	u, iu string
	v, iv string
	vrf   string
	area  uint32
	cost  uint32   // cost of u's interface iu
	nhIP  ip4.Addr // v's interface IP (u's next hop)
}

const defaultRefBandwidth = 100_000_000 // 100 Mbps, the classic default

// ospfCost returns the cost of an interface for a process.
func ospfCost(proc *config.OSPFConfig, i *config.Interface) uint32 {
	if i.OSPF != nil && i.OSPF.Cost > 0 {
		return i.OSPF.Cost
	}
	ref := uint64(defaultRefBandwidth)
	if proc != nil && proc.RefBandwidth > 0 {
		ref = proc.RefBandwidth
	}
	bw := i.Bandwidth
	if bw == 0 {
		bw = 1_000_000_000 // assume 1G when unspecified
	}
	c := ref / bw
	if c < 1 {
		c = 1
	}
	if c > 65535 {
		c = 65535
	}
	return uint32(c)
}

// ospfAdjacencies computes all OSPF adjacencies (both directions).
func (e *Engine) ospfAdjacencies() []ospfAdj {
	var out []ospfAdj
	for _, ed := range e.topo.Edges {
		du, dv := e.net.Devices[ed.Node1], e.net.Devices[ed.Node2]
		iu, iv := du.Interfaces[ed.Iface1], dv.Interfaces[ed.Iface2]
		if iu == nil || iv == nil || iu.OSPF == nil || iv.OSPF == nil {
			continue
		}
		if iu.OSPF.Passive || iv.OSPF.Passive {
			continue
		}
		if iu.OSPF.Area != iv.OSPF.Area {
			continue
		}
		if iu.VRFOrDefault() != iv.VRFOrDefault() {
			continue
		}
		vrfName := iu.VRFOrDefault()
		vu, vv := du.VRFs[vrfName], dv.VRFs[vrfName]
		if vu == nil || vv == nil || vu.OSPF == nil || vv.OSPF == nil {
			continue
		}
		procU := vu.OSPF
		nh, ok := iv.Primary()
		if !ok {
			continue
		}
		out = append(out, ospfAdj{
			u: ed.Node1, iu: ed.Iface1, v: ed.Node2, iv: ed.Iface2,
			vrf: vrfName, area: iu.OSPF.Area,
			cost: ospfCost(procU, iu), nhIP: nh.Addr,
		})
	}
	return out
}

// isABR reports whether the device has OSPF interfaces in more than one
// area (one of them the backbone).
func isABR(d *config.Device, vrfName string) bool {
	areas := make(map[uint32]bool)
	for _, i := range d.Interfaces {
		if i.Active && i.OSPF != nil && i.VRFOrDefault() == vrfName {
			areas[i.OSPF.Area] = true
		}
	}
	return len(areas) > 1 && areas[0]
}

// seedOSPF installs each node's own OSPF networks (stub routes for enabled
// interfaces) and redistributes externals into the OSPF RIB. Nodes seed in
// parallel: each writes only its own RIBs, stamping from its own clock.
func (e *Engine) seedOSPF() {
	e.runPhase("ospf/seed", e.names, func(node string) {
		e.forEachVRFOf(node, e.seedOSPFNode)
	})
}

func (e *Engine) seedOSPFNode(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
	if cv.OSPF == nil {
		return
	}
	for _, in := range e.nodes[node].idx.ifaces {
		i := d.Interfaces[in]
		if !i.Active || i.OSPF == nil || i.VRFOrDefault() != cv.Name {
			continue
		}
		for _, p := range i.Addresses {
			prefix := p.Canonical()
			if p.Len == 32 {
				prefix = ip4.HostPrefix(p.Addr)
			}
			if !e.inScope.keep(prefix) {
				continue
			}
			vs.OSPFRIB.Merge(routing.Route{
				Prefix:       prefix,
				Protocol:     routing.OSPF,
				Metric:       ospfCost(cv.OSPF, i),
				AD:           routing.OSPF.DefaultAdminDistance(),
				Area:         i.OSPF.Area,
				NextHopIface: in,
			})
		}
	}
	e.redistributeIntoOSPF(node, d, cv, vs)
}

// redistributeIntoOSPF originates external routes per the VRF's
// redistribution statements, running any attached route map.
func (e *Engine) redistributeIntoOSPF(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
	if cv.OSPF == nil {
		return
	}
	env := policy.Env{Device: d, Pool: e.pool}
	seen := make(map[routing.Key]bool)
	for _, rd := range cv.OSPF.Redistribute {
		var sources []routing.Route
		switch rd.From {
		case config.RedistConnected:
			sources = vs.ConnRIB.AllBest()
		case config.RedistStatic:
			sources = vs.StatRIB.AllBest()
		case config.RedistBGP:
			sources = vs.BGPRIB.AllBest()
		default:
			continue
		}
		proto := routing.OSPFE2
		if rd.MetricType == 1 {
			proto = routing.OSPFE1
		}
		metric := rd.Metric
		if metric == 0 {
			metric = 20 // OSPF default external metric
		}
		for _, src := range sources {
			if src.Protocol.IsOSPF() || !e.inScope.keep(src.Prefix) {
				continue
			}
			v := policy.ViewOf(src)
			v.Metric = metric
			if res := env.Eval(rd.RouteMap, &v); !res.Permit {
				continue
			}
			rt := routing.Route{
				Prefix:   src.Prefix,
				Protocol: proto,
				Metric:   v.Metric,
				AD:       proto.DefaultAdminDistance(),
				Tag:      v.Tag,
				// Externals forward via the redistributing router's own
				// resolution of the source route.
				NextHop:      src.NextHop,
				NextHopIface: src.NextHopIface,
			}
			seen[rt.Key()] = true
			vs.OSPFRIB.Merge(rt)
		}
	}
	// Withdraw externals that are no longer sourced (e.g. the underlying
	// BGP route went away between outer rounds).
	withdrawStaleExternals(vs, seen)
	vs.ospfExternal = seen
}

// withdrawStaleExternals withdraws every previously originated external
// whose key is absent from seen, in sorted key order: Withdraw
// accumulates the RIB's published delta in call order, so iterating the
// map directly would leak map iteration order into the deltas peers
// import — and from there into logical-clock draws and persisted
// artifact bytes.
func withdrawStaleExternals(vs *VRFState, seen map[routing.Key]bool) {
	stale := make([]routing.Key, 0, len(vs.ospfExternal))
	for k := range vs.ospfExternal {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return lessKey(stale[i], stale[j]) })
	for _, k := range stale {
		vs.OSPFRIB.Withdraw(routing.Route{
			Prefix: k.Prefix, Protocol: k.Protocol, Metric: k.Metric,
			AD: k.AD, Tag: k.Tag, Area: k.Area, NextHop: k.NextHop,
			NextHopIface: k.NextHopIface, NextHopNode: k.NextHopNode,
			Drop: k.Drop, Attrs: k.Attrs,
		})
	}
}

// lessKey orders route keys for deterministic withdrawal. Attrs is
// deliberately ignored: OSPF externals never carry BGP attributes
// (Route.Attrs is nil unless Protocol.IsBGP()).
func lessKey(a, b routing.Key) bool {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c < 0
	}
	if a.Protocol != b.Protocol {
		return a.Protocol < b.Protocol
	}
	if a.NextHop != b.NextHop {
		return a.NextHop < b.NextHop
	}
	if a.NextHopIface != b.NextHopIface {
		return a.NextHopIface < b.NextHopIface
	}
	if a.NextHopNode != b.NextHopNode {
		return a.NextHopNode < b.NextHopNode
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if a.AD != b.AD {
		return a.AD < b.AD
	}
	if a.Tag != b.Tag {
		return a.Tag < b.Tag
	}
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	return !a.Drop && b.Drop
}

// deriveOSPF computes the route node u installs when neighbor v (over
// adjacency a) advertises r, or ok=false when the route does not propagate
// over this adjacency.
func deriveOSPF(r routing.Route, a ospfAdj, vIsABR bool) (routing.Route, bool) {
	out := routing.Route{
		Prefix:       r.Prefix,
		AD:           routing.OSPF.DefaultAdminDistance(),
		Tag:          r.Tag,
		NextHop:      a.nhIP,
		NextHopIface: a.iu,
		NextHopNode:  a.v,
	}
	switch r.Protocol {
	case routing.OSPF:
		switch {
		case r.Area == a.area:
			out.Protocol = routing.OSPF
			out.Area = a.area
			out.Metric = r.Metric + a.cost
		case vIsABR:
			// ABR summarizes intra-area routes into other areas.
			out.Protocol = routing.OSPFIA
			out.Area = a.area
			out.Metric = r.Metric + a.cost
		default:
			return routing.Route{}, false
		}
	case routing.OSPFIA:
		switch {
		case r.Area == a.area:
			out.Protocol = routing.OSPFIA
			out.Area = a.area
			out.Metric = r.Metric + a.cost
		case vIsABR && r.Area == 0 && a.area != 0:
			// Backbone summaries re-advertised into leaf areas.
			out.Protocol = routing.OSPFIA
			out.Area = a.area
			out.Metric = r.Metric + a.cost
		default:
			return routing.Route{}, false
		}
	case routing.OSPFE1:
		out.Protocol = routing.OSPFE1
		out.Area = 0
		out.Metric = r.Metric + a.cost
	case routing.OSPFE2:
		out.Protocol = routing.OSPFE2
		out.Area = 0
		out.Metric = r.Metric // E2 metric does not accumulate
	default:
		return routing.Route{}, false
	}
	return out, true
}

// runOSPF runs the OSPF exchange to convergence. Returns false on
// non-convergence.
func (e *Engine) runOSPF() bool {
	e.seedOSPF()
	adjs := e.ospfAdjacencies()
	if len(adjs) == 0 {
		// Still flush seed routes into main RIBs.
		e.runPhase("ospf/flush", e.names, func(node string) {
			e.forEachVRFOf(node, func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
				e.flushOSPFDelta(vs)
			})
		})
		return true
	}

	// Group adjacencies by receiving node, deterministic order.
	byNode := make(map[string][]ospfAdj)
	nodeSet := make(map[string]bool)
	var edges [][2]string
	for _, a := range adjs {
		byNode[a.u] = append(byNode[a.u], a)
		nodeSet[a.u] = true
		nodeSet[a.v] = true
		edges = append(edges, [2]string{a.u, a.v})
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	process := func(u string) bool {
		changed := false
		abrCache := make(map[string]bool)
		for _, a := range byNode[u] {
			vs := e.vrf(a.u, a.vrf)
			nvs := e.vrf(a.v, a.vrf)
			d := nvs.ospfPublished
			vIsABR, ok := abrCache[a.v+"/"+a.vrf]
			if !ok {
				vIsABR = isABR(e.net.Devices[a.v], a.vrf)
				abrCache[a.v+"/"+a.vrf] = vIsABR
			}
			for _, r := range d.Removed {
				if der, ok := deriveOSPF(r, a, vIsABR); ok {
					if vs.OSPFRIB.Withdraw(der) {
						changed = true
					}
				}
			}
			for _, r := range d.Added {
				if der, ok := deriveOSPF(r, a, vIsABR); ok {
					// Split-horizon-lite: never install a route whose next
					// hop is ourselves.
					if der.NextHopNode == u {
						continue
					}
					if vs.OSPFRIB.Merge(der) {
						changed = true
					}
				}
			}
		}
		return changed
	}

	publish := func(u string) bool {
		any := false
		// Sorted VRF order: applyOSPFToMain draws logical clocks from the
		// shared engine clock, and map order would interleave draws across
		// VRFs differently run to run (clocks persist in artifacts).
		for _, vn := range sortedVRFNames(e.nodes[u]) {
			vs := e.nodes[u].VRFs[vn]
			vs.ospfPublished = vs.OSPFRIB.TakeDelta()
			e.applyOSPFToMain(vs, vs.ospfPublished)
			if !vs.ospfPublished.Empty() {
				any = true
			}
		}
		return any
	}

	converged := e.exchangeLoop("ospf", nodes, edges, process, publish, func() uint64 {
		return e.ribStateHash("ospf/hash", func(vs *VRFState) *routing.RIB { return vs.OSPFRIB })
	}, &e.res.IGPIterations)
	// Nodes without adjacencies never run publish; flush their seeds.
	e.runPhase("ospf/flush", e.names, func(node string) {
		e.forEachVRFOf(node, func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
			if vs.OSPFRIB.PendingDelta() {
				e.flushOSPFDelta(vs)
			}
		})
	})
	return converged
}

// flushOSPFDelta pushes pending OSPF RIB changes into the main RIB.
func (e *Engine) flushOSPFDelta(vs *VRFState) {
	d := vs.OSPFRIB.TakeDelta()
	vs.ospfPublished = d
	e.applyOSPFToMain(vs, d)
}

func (e *Engine) applyOSPFToMain(vs *VRFState, d routing.Delta) {
	for _, r := range d.Removed {
		vs.Main.Withdraw(r)
	}
	for _, r := range d.Added {
		vs.Main.Merge(r)
	}
}

// ribStateHash hashes the selected RIB across all nodes/VRFs. Per-node
// hashes are computed in parallel (each reads only its own RIBs) and
// scattered into per-node slots; the cross-node combine is a serial fold
// in device order, so the result is independent of scheduling. Works on
// shell engines built around an existing node map (names index absent):
// those derive a sorted name list locally and hash serially.
func (e *Engine) ribStateHash(phase string, sel func(*VRFState) *routing.RIB) uint64 {
	names, idx := e.names, e.nameIdx
	if len(names) != len(e.nodes) {
		names = make([]string, 0, len(e.nodes))
		for n := range e.nodes {
			names = append(names, n)
		}
		sort.Strings(names)
		idx = make(map[string]int, len(names))
		for i, n := range names {
			idx[n] = i
		}
	}
	hs := make([]uint64, len(names))
	e.runPhase(phase, names, func(node string) {
		ns := e.nodes[node]
		var h uint64 = 14695981039346656037
		for _, vn := range sortedVRFNames(ns) {
			h ^= sel(ns.VRFs[vn]).StateHash()
			h *= 1099511628211
		}
		hs[idx[node]] = h
	})
	var h uint64 = 14695981039346656037
	for _, x := range hs {
		h ^= x
		h *= 1099511628211
	}
	return h
}

// sortedVRFNames returns the node's VRF names in sorted order (cached at
// engine construction; the VRF set is immutable after New).
func sortedVRFNames(ns *NodeState) []string {
	if len(ns.vrfNames) == len(ns.VRFs) {
		return ns.vrfNames
	}
	// Cache absent (NodeStates rebuilt outside New, e.g. artifact
	// rehydration) or stale: derive from the map.
	names := make([]string, 0, len(ns.VRFs))
	for n := range ns.VRFs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exchangeLoop drives a route-exchange fixed point under the configured
// schedule. process(u) consumes neighbors' published deltas and returns
// whether u's RIB changed; publish(u) rotates u's delta and reports whether
// it was non-empty. Seed state is intentionally NOT pre-published: it flows
// out with each node's first publish, so every published delta is consumed
// exactly once by each neighbor. Returns false if the loop hit the
// iteration bound or an oscillation was detected.
//
// Under the colored schedule, process and publish are FUSED into one task
// per node: same-color nodes share no adjacency, so no node in the class
// reads another class member's published delta — u may publish before w
// finishes processing without w ever observing it, and the per-node
// process-then-publish order is preserved. Fusion halves the number of
// barriers per iteration (hundreds of phases on a large fabric) and
// doubles the work per dispatched task. The lockstep schedule keeps the
// two-phase barrier: with every node in one class, publishing only after
// the full process phase is exactly the synchronous semantics that
// exhibits Figure 1's oscillations.
func (e *Engine) exchangeLoop(proto string, nodes []string, edges [][2]string,
	process func(string) bool, publish func(string) bool, hash func() uint64, iterOut *int) bool {

	fused := e.opts.Schedule == ScheduleColored
	var classes [][]string
	if e.opts.Schedule == ScheduleColored {
		coloring := topo.ColorGraph(nodes, edges)
		classes = coloring.Order
	} else {
		classes = [][]string{nodes}
	}
	phase := proto + "/exchange"

	seen := make(map[uint64]int)
	maxIters := e.opts.maxIters()
	var fullPrev map[string][]routing.Route
	if e.opts.FullStateConvergence {
		fullPrev = e.snapshotState()
	}

	for iter := 1; iter <= maxIters; iter++ {
		*iterOut = iter
		anyChange := false
		for _, class := range classes {
			// Cancellation is checked once per color-class round: classes
			// are short (one pull+merge per node), so a deadline stops the
			// loop promptly with a clean partial state between phases.
			if e.cancelled() {
				return false
			}
			var mu chanBool
			if fused {
				e.runPhase(phase, class, func(u string) {
					faults.Fire("dataplane", u)
					changed := process(u)
					if publish(u) || changed {
						mu.set()
					}
				})
			} else {
				e.runPhase(phase, class, func(u string) {
					faults.Fire("dataplane", u)
					if process(u) {
						mu.set()
					}
				})
				e.runPhase(phase, class, func(u string) {
					if publish(u) {
						mu.set()
					}
				})
			}
			if mu.get() {
				anyChange = true
			}
		}
		if e.opts.FullStateConvergence {
			// The classic fixed-point method (§4.1.3): keep complete RIB
			// state for the previous and current iteration and compare —
			// "proved too expensive"; kept as the memory ablation.
			cur := e.snapshotState()
			if statesEqual(fullPrev, cur) {
				return true
			}
			fullPrev = cur
			continue
		}
		if !anyChange {
			return true
		}
		h := hash()
		if prev, ok := seen[h]; ok && prev < iter {
			// State cycle: the routing oscillates (Figure 1 pathology).
			// The cycle report plus the current (partial but coherent) RIB
			// state is the answer — non-convergence is reported, never
			// papered over, and never a hang.
			e.res.Oscillation = true
			if e.res.Cycle == nil {
				e.res.Cycle = &CycleInfo{
					Protocol: proto, FirstIteration: prev, RepeatIteration: iter, StateHash: h,
				}
			}
			e.warnf("%s: oscillation detected (state at iteration %d repeats iteration %d)", proto, iter, prev)
			e.res.Diags = append(e.res.Diags, diag.Diagnostic{
				Stage: diag.StageDataPlane, Kind: diag.KindNonConvergence,
				Message: fmt.Sprintf("%s oscillation: state at iteration %d repeats iteration %d", proto, iter, prev),
			})
			return false
		}
		seen[h] = iter
	}
	e.warnf("%s: no convergence within %d iterations", proto, maxIters)
	e.res.Diags = append(e.res.Diags, diag.Diagnostic{
		Stage: diag.StageDataPlane, Kind: diag.KindBudget,
		Message: fmt.Sprintf("Budget exceeded: %s exchange loop hit its %d-iteration budget", proto, maxIters),
	})
	return false
}

// snapshotState deep-copies every main-RIB best route — the per-iteration
// cost of the classic convergence method.
func (e *Engine) snapshotState() map[string][]routing.Route {
	out := make(map[string][]routing.Route, len(e.nodes))
	for _, name := range e.net.DeviceNames() {
		for _, vn := range sortedVRFNames(e.nodes[name]) {
			vs := e.nodes[name].VRFs[vn]
			key := name + "/" + vn
			out[key] = append(append([]routing.Route(nil), vs.Main.AllBest()...), vs.OSPFRIB.AllBest()...)
			out[key] = append(out[key], vs.BGPRIB.AllBest()...)
		}
	}
	return out
}

func statesEqual(a, b map[string][]routing.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok || len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i].Key() != rb[i].Key() {
				return false
			}
		}
	}
	return true
}

// chanBool is a tiny concurrent-safe flag.
type chanBool struct {
	v atomic.Bool
}

func (c *chanBool) set()      { c.v.Store(true) }
func (c *chanBool) get() bool { return c.v.Load() }
