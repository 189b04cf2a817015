package dataplane

// Re-runs from a base (DESIGN §8, "Re-runs from a base"). A failure
// class or an edit changes little of the network it is run on, yet a run
// from scratch re-derives everything from configuration. RunFrom takes
// from a base run what the change provably leaves alone: the topology,
// each unchanged device's index (devIndex) and its connected state.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/routing"
	"repro/internal/topo"
)

// RunFrom executes the simulation of net under opts, starting from base:
// the data plane of net or of a network net was edited from, under any
// failure overlay and scope (nil runs from scratch; RunContext is RunFrom
// with a nil base). Its result is RunContext's, byte for byte in
// MarshalResult; only the work differs. It takes from base
//
//   - the topology, when every device's interfaces are base's and base
//     masks the same links and nodes (taken as is) or none (masked);
//   - the devIndex of every device that is base's (the same pointer) in
//     a NodeState an engine built (a decoded artifact's carry none);
//   - for those devices, unless base is Degraded (a quarantined device
//     always leaves a diagnostic), the connected state: each VRF's
//     ConnRIB itself, the main RIB seeded with its routes, and the node
//     clock advanced past its draws.
//
// Connected routes read only interface configuration, never the scope or
// the failure mask, so a ConnRIB is a function of its device. A shared
// ConnRIB is only ever read: nothing merges into it after initConnected,
// which ends by reading AllBest, so its sorted prefix snapshot exists
// before any run can share it and concurrent runs from one base never
// take the RIB's lazy Prefixes write. RunFrom never modifies base.
func RunFrom(ctx context.Context, base *Result, net *config.Network, opts Options) *Result {
	return newEngine(ctx, base, net, opts).Run()
}

// devIndex is what the engine derives from one device's configuration
// alone: no other device, scope or failure enters it. It is built once
// per device model and carried by the device's NodeState, so a run from
// a base takes it for every device the base shares.
type devIndex struct {
	ifaces   []string               // interface names, sorted
	vrfNames []string               // configured VRFs and those of active interfaces, sorted
	conn     map[string][]connEntry // per VRF, active sub-/32 interface prefixes in ifaces order
	owned    []ownedAddr            // active interface addresses in ifaces order
	deps     []ip4.Addr             // the device's addresses of D (scope.go)
	natPools [][2]ip4.Addr          // destination-NAT pools, which a scope keeps
}

// connEntry is one active interface prefix, in sorted interface order.
type connEntry struct {
	iface  string
	prefix ip4.Prefix
}

// ownedAddr is one active interface address, for the IP-ownership index.
type ownedAddr struct {
	addr       ip4.Addr
	iface, vrf string
}

func newDevIndex(d *config.Device) *devIndex {
	x := &devIndex{ifaces: d.InterfaceNames(), conn: make(map[string][]connEntry)}
	vrfs := make(map[string]bool, len(d.VRFs))
	for vn := range d.VRFs {
		vrfs[vn] = true
	}
	for _, in := range x.ifaces {
		i := d.Interfaces[in]
		if !i.Active {
			continue
		}
		vrf := i.VRFOrDefault()
		vrfs[vrf] = true
		for _, p := range i.Addresses {
			x.owned = append(x.owned, ownedAddr{addr: p.Addr, iface: in, vrf: vrf})
			if p.Len < 32 {
				x.conn[vrf] = append(x.conn[vrf], connEntry{iface: in, prefix: p})
			}
		}
	}
	for vn := range vrfs {
		x.vrfNames = append(x.vrfNames, vn)
	}
	sort.Strings(x.vrfNames)
	for _, r := range d.NATRules {
		if r.Kind == config.DestNAT {
			x.natPools = append(x.natPools, [2]ip4.Addr{r.PoolLo, r.PoolHi})
		}
	}
	// D: both ends of every BGP session (sessionViable walks both ways),
	// every static next hop and every route-map next-hop constant.
	for _, cv := range d.VRFs {
		for _, sr := range cv.StaticRoutes {
			x.deps = append(x.deps, sr.NextHop)
		}
		if cv.BGP == nil {
			continue
		}
		for _, n := range cv.BGP.Neighbors {
			x.deps = append(x.deps, n.PeerIP, x.sourceIP(d, cv.Name, n))
		}
	}
	for _, rm := range d.RouteMaps {
		for _, c := range rm.Clauses {
			for _, s := range c.Sets {
				if s.Kind == config.SetNextHop {
					x.deps = append(x.deps, s.NextHop)
				}
			}
		}
	}
	slices.Sort(x.deps)
	return x
}

// connIface returns the active interface in vrf whose subnet contains a.
// The prefixes are scanned in sorted interface order, so longest-match
// ties keep their first-interface winner.
func (x *devIndex) connIface(vrf string, a ip4.Addr) (string, bool) {
	best, bestLen := "", -1
	for _, en := range x.conn[vrf] {
		if en.prefix.Contains(a) && int(en.prefix.Len) > bestLen {
			best, bestLen = en.iface, int(en.prefix.Len)
		}
	}
	return best, bestLen >= 0
}

// sourceIP picks d's local session IP for a configured neighbor: the
// update-source interface's address if set, else the address of the
// interface whose subnet contains the peer.
func (x *devIndex) sourceIP(d *config.Device, vrf string, n *config.BGPNeighbor) ip4.Addr {
	if n.UpdateSource != "" {
		if i, ok := d.Interfaces[n.UpdateSource]; ok && i.Active {
			if p, ok := i.Primary(); ok {
				return p.Addr
			}
		}
		return 0
	}
	if iface, ok := x.connIface(vrf, n.PeerIP); ok {
		if p, ok := d.Interfaces[iface].Primary(); ok {
			return p.Addr
		}
	}
	return 0
}

// baseNode returns base's state of device d under name when a run of d
// may take its index (and, from a clean base, its connected state): the
// same device model, built by an engine. It is nil otherwise, and when
// base is nil.
func (r *Result) baseNode(name string, d *config.Device) *NodeState {
	if r == nil {
		return nil
	}
	if b := r.Nodes[name]; b != nil && b.Device == d && b.idx != nil {
		return b
	}
	return nil
}

// topologyFrom returns the run's topology. topo.Infer reads only the
// devices' interfaces, so when base was inferred from the same interfaces
// its topology is this run's if both mask the same links and nodes, and
// masking it gives this run's if base masks none.
func (e *Engine) topologyFrom(base *Result) *topo.Topology {
	if base != nil && sameInterfaces(base.Network, e.net) {
		bs := base.Suppress
		if slices.Equal(bs.Links, e.sup.Links) && slices.Equal(bs.Nodes, e.sup.Nodes) {
			return base.Topology
		}
		if len(bs.Links) == 0 && len(bs.Nodes) == 0 {
			return base.Topology.Mask(e.sup.Links, e.sup.Nodes)
		}
	}
	return topo.Infer(e.net).Mask(e.sup.Links, e.sup.Nodes)
}

// sameInterfaces reports whether two networks have the same devices,
// each the same model or one with equal interfaces.
func sameInterfaces(a, b *config.Network) bool {
	if a == b {
		return true
	}
	if len(a.Devices) != len(b.Devices) {
		return false
	}
	for name, d := range b.Devices {
		ad := a.Devices[name]
		if ad == nil || ad != d && !reflect.DeepEqual(ad.Interfaces, d.Interfaces) {
			return false
		}
	}
	return true
}

// shareConnected gives vs the connected state of b, the same VRF of the
// same device in a clean base: b's ConnRIB itself, and a main RIB seeded
// by Load with its routes, which stamps them in AllBest order as the
// per-route merges of initConnectedNode do. The node clock first advances
// past the ConnRIB's draws (one per candidate), so every later draw
// stamps what a cold run's does.
func shareConnected(b, vs *VRFState, clock *routing.Clock) {
	vs.ConnRIB = b.ConnRIB
	clock.Advance(uint64(b.ConnRIB.CandidateCount()))
	if err := vs.Main.Load(b.ConnRIB.AllBest()); err != nil {
		panic(fmt.Sprintf("dataplane: seeding the main RIB of VRF %s: %v", vs.Name, err))
	}
}
