package dataplane

import (
	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/routing"
)

// initConnected installs connected subnets and local host routes for every
// active interface, and seeds each VRF's main RIB; a node whose connected
// state the run shares takes it from its base node (shareConnected).
// Per-node independent, so nodes fan out over the worker pool.
func (e *Engine) initConnected() {
	e.runPhase("connected", e.names, func(node string) {
		if b := e.connFrom[node]; b != nil {
			ns := e.nodes[node]
			e.forEachVRFOf(node, func(_ string, _ *config.Device, cv *config.VRF, vs *VRFState) {
				shareConnected(b.VRFs[cv.Name], vs, &ns.clock)
			})
			return
		}
		e.forEachVRFOf(node, e.initConnectedNode)
	})
}

func (e *Engine) initConnectedNode(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
	{
		for _, in := range e.nodes[node].idx.ifaces {
			i := d.Interfaces[in]
			if !i.Active || i.VRFOrDefault() != cv.Name {
				continue
			}
			for _, p := range i.Addresses {
				if p.Len < 32 {
					vs.ConnRIB.Merge(routing.Route{
						Prefix:       p.Canonical(),
						Protocol:     routing.Connected,
						NextHopIface: in,
						AD:           0,
					})
				}
				vs.ConnRIB.Merge(routing.Route{
					Prefix:       ip4.HostPrefix(p.Addr),
					Protocol:     routing.Local,
					NextHopIface: in,
					AD:           0,
				})
			}
		}
		for _, rt := range vs.ConnRIB.AllBest() {
			vs.Main.Merge(rt)
		}
	}
}

// installStatics installs static routes whose next hops are viable,
// iterating because statics can resolve through other statics
// (recursive static routes). Each pass fans nodes out over the worker
// pool: static resolution only reads the node's own RIBs and immutable
// config, so passes are per-node independent.
func (e *Engine) installStatics() {
	for pass := 0; pass < 8; pass++ {
		var changed chanBool
		e.runPhase("statics", e.names, func(node string) {
			e.forEachVRFOf(node, func(node string, d *config.Device, cv *config.VRF, vs *VRFState) {
				for _, sr := range cv.StaticRoutes {
					if !e.inScope.keep(sr.Prefix) {
						continue
					}
					rt := routing.Route{
						Prefix:       sr.Prefix.Canonical(),
						Protocol:     routing.Static,
						NextHop:      sr.NextHop,
						NextHopIface: sr.Iface,
						Drop:         sr.Drop,
						Tag:          sr.Tag,
						AD:           staticAD(sr),
					}
					if !e.staticViable(node, d, cv.Name, sr, vs) {
						continue
					}
					if vs.StatRIB.Merge(rt) {
						changed.set()
					}
					if vs.Main.Merge(rt) {
						changed.set()
					}
				}
			})
		})
		if !changed.get() {
			return
		}
	}
}

func staticAD(sr config.StaticRoute) uint8 {
	if sr.AD != 0 {
		return sr.AD
	}
	return routing.Static.DefaultAdminDistance()
}

// staticViable reports whether the static route can be installed: discard
// routes always; interface routes when the interface is up; next-hop routes
// when the next hop resolves in the main RIB or a connected subnet.
func (e *Engine) staticViable(node string, d *config.Device, vrfName string, sr config.StaticRoute, vs *VRFState) bool {
	if sr.Drop {
		return true
	}
	if sr.Iface != "" {
		i, ok := d.Interfaces[sr.Iface]
		return ok && i.Active && i.VRFOrDefault() == vrfName
	}
	if sr.NextHop == 0 {
		return false
	}
	if _, ok := e.connIface(node, vrfName, sr.NextHop); ok {
		return true
	}
	// Recursive: resolvable via main RIB (but not via the route itself).
	for _, via := range vs.Main.LongestMatch(sr.NextHop) {
		if via.Prefix == sr.Prefix.Canonical() && via.Protocol == routing.Static {
			continue
		}
		return true
	}
	return false
}
