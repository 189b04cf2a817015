package dataplane_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/topo"
)

// updateNets are the networks of the differential tests of Update, with
// the draws each gets: the scope test's networks, where the dependency
// set D decides the answer (recursiveNet, the iBGP-over-OSPF WAN) or is
// large (NET1, NET2).
var updateNets = []struct {
	name  string
	gen   func() *netgen.Snapshot
	draws int
}{
	{"recursive", recursiveNet, 40},
	{"wan-ibgp", func() *netgen.Snapshot {
		return netgen.WAN(netgen.WANParams{Name: "wan", Nodes: 12, CoreMesh: 4, TransitPeers: 3, Chords: 3})
	}, 12},
	{"mesh-1", func() *netgen.Snapshot {
		return netgen.Random(netgen.RandomParams{Name: "m1", Nodes: 16, Degree: 3, LansPerNode: 2, Seed: 1})
	}, 10},
	{"mesh-2", func() *netgen.Snapshot {
		return netgen.Random(netgen.RandomParams{Name: "m2", Nodes: 24, Degree: 4, LansPerNode: 1, Seed: 2})
	}, 10},
	{"fabric", func() *netgen.Snapshot {
		return netgen.Fabric(netgen.FabricParams{Name: "f", Spines: 2, Pods: 3, AggPerPod: 2, TorPerPod: 3,
			HostNetsPerTor: 2, Multipath: true, EdgeACLs: true})
	}, 10},
	{"NET1", func() *netgen.Snapshot { return catalogNet("NET1") }, 4},
	{"NET2", func() *netgen.Snapshot { return catalogNet("NET2") }, 4},
}

// TestEditUpdateMatchesCold is the differential check of Update. Each
// draw edits one or two devices of a generated network — adding, removing
// or changing Null0, next-hop and interface static routes and BGP network
// statements — and computes the edited data plane twice: by Update from
// the base's and by a cold run. Where Update runs, its result must equal
// the cold one in Fingerprint, every NodeFingerprint, every session and
// the convergence flags, also after a MarshalResult/UnmarshalResult round
// trip. Some draws put a static over an address of D (a session endpoint
// or a static next hop); Update must refuse every draw whose edited
// prefixes hold such an address, and must run on most of the others, so
// the test cannot pass by always falling back.
func TestEditUpdateMatchesCold(t *testing.T) {
	var total drawCounts
	for i, c := range updateNets {
		t.Run(c.name, func(t *testing.T) {
			draws := c.draws
			if testing.Short() {
				draws = (draws + 2) / 3
			}
			n := checkUpdateDraws(t, c.gen(), int64(i+1), draws)
			t.Logf("%d draws: %d over D, %d eligible, %d updated", draws, n.covered, n.eligible, n.updated)
			total.covered += n.covered
			total.eligible += n.eligible
			total.updated += n.updated
		})
	}
	if total.covered == 0 {
		t.Error("no draw put an edited prefix over an address of D")
	}
	if total.eligible == 0 || 3*total.updated < 2*total.eligible {
		t.Errorf("Update ran on %d of %d eligible draws, want at least two thirds", total.updated, total.eligible)
	}
}

// drawCounts tallies draws: those whose edited prefixes hold an address
// of D, the others, and those Update ran on.
type drawCounts struct{ covered, eligible, updated int }

func checkUpdateDraws(t *testing.T, snap *netgen.Snapshot, seed int64, draws int) drawCounts {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := core.LoadGeneratedWith(pipeline.Disabled(), snap).Net
	base := dataplane.Run(net, dataplane.Options{})
	if base.Degraded() || !base.Converged || len(base.Warnings) > 0 {
		t.Fatalf("base run not clean: converged=%v diags=%v warnings=%v", base.Converged, base.Diags, base.Warnings)
	}
	baseFP := base.Fingerprint()
	baseDeps := dependencyAddrs(base)
	cands := scopeCandidates(net)
	var n drawCounts
	for d := 0; d < draws; d++ {
		ed := drawEdit(rng, net, base, baseDeps, cands)
		label := fmt.Sprintf("draw %d: %s", d, ed.desc)
		cold := dataplane.Run(ed.net, dataplane.Options{})
		got, ok := dataplane.Update(context.Background(), base, ed.net, dataplane.Options{})
		deps := append(dependencyAddrs(cold), baseDeps...)
		if coversAny(ed.prefixes, append(deps, ed.hops...)) {
			n.covered++
			if ok {
				t.Errorf("%s: Update ran although an edited prefix holds an address of D", label)
			}
		} else {
			n.eligible++
		}
		if !ok {
			continue
		}
		n.updated++
		compareUpdate(t, label, cold, got)
		compareUpdate(t, label+" (round trip)", cold, roundTrip(t, got))
	}
	if base.Fingerprint() != baseFP {
		t.Fatal("Update changed its base")
	}
	return n
}

func compareUpdate(t *testing.T, label string, cold, got *dataplane.Result) {
	t.Helper()
	if got.Converged != cold.Converged || got.Oscillation != cold.Oscillation {
		t.Errorf("%s: converged/oscillation %v/%v, cold %v/%v", label,
			got.Converged, got.Oscillation, cold.Converged, cold.Oscillation)
	}
	if got.Fingerprint() != cold.Fingerprint() {
		t.Errorf("%s: fingerprint %x, cold %x", label, got.Fingerprint(), cold.Fingerprint())
	}
	for _, name := range cold.Network.DeviceNames() {
		if g, c := got.NodeFingerprint(name), cold.NodeFingerprint(name); g != c {
			t.Errorf("%s: node %s fingerprint %x, cold %x", label, name, g, c)
		}
	}
	render := func(r *dataplane.Result) []string {
		out := make([]string, len(r.Sessions))
		for i, s := range r.Sessions {
			out[i] = s.String()
		}
		return out
	}
	if g, c := render(got), render(cold); !slices.Equal(g, c) {
		t.Errorf("%s: sessions\n%v\ncold\n%v", label, g, c)
	}
}

// edit is one drawn edit: the edited network, the prefixes whose static
// routes or network statements it touched, and the next hops of the
// static routes it added or removed.
type edit struct {
	net      *config.Network
	prefixes []ip4.Prefix
	hops     []ip4.Addr
	desc     string
}

// drawEdit edits one or two devices of net, copying what it changes so
// every other device stays pointer-identical to net's. One op in eight
// null-routes an address of D, which Update must refuse.
func drawEdit(rng *rand.Rand, net *config.Network, base *dataplane.Result, deps []ip4.Addr, cands []ip4.Prefix) edit {
	ed := edit{net: &config.Network{Devices: maps.Clone(net.Devices), Warnings: net.Warnings}}
	names := net.DeviceNames()
	for n := 1 + rng.Intn(2); n > 0; n-- {
		name := names[rng.Intn(len(names))]
		d := *ed.net.Devices[name]
		d.VRFs = maps.Clone(d.VRFs)
		v := *d.VRFs[config.DefaultVRF]
		v.StaticRoutes = slices.Clone(v.StaticRoutes)
		if v.BGP != nil {
			bgp := *v.BGP
			bgp.Networks = slices.Clone(bgp.Networks)
			v.BGP = &bgp
		}
		d.VRFs[config.DefaultVRF] = &v
		ed.net.Devices[name] = &d
		op := ed.apply(rng, net, &d, &v, base.Topology, deps, cands)
		ed.desc += fmt.Sprintf("%s %s; ", name, op)
	}
	return ed
}

// apply makes one random change to v, a VRF of device d, and returns a
// description of it.
func (ed *edit) apply(rng *rand.Rand, net *config.Network, d *config.Device, v *config.VRF, tp *topo.Topology, deps []ip4.Addr, cands []ip4.Prefix) string {
	p := freshPrefix(rng, cands)
	add := func(sr config.StaticRoute) string {
		v.StaticRoutes = append(v.StaticRoutes, sr)
		ed.prefixes = append(ed.prefixes, sr.Prefix)
		ed.hops = append(ed.hops, sr.NextHop)
		return fmt.Sprintf("+static %+v", sr)
	}
	switch op := rng.Intn(8); {
	case op == 0 && len(deps) > 0:
		// Null-route an address of D, by preference one this device's own
		// lookups read, so that the edit changes what they answer.
		a := deps[rng.Intn(len(deps))]
		if own := ownDeps(d); len(own) > 0 {
			a = own[rng.Intn(len(own))]
		}
		sr := config.StaticRoute{Prefix: ip4.Prefix{Addr: a, Len: 32}, Drop: true}
		if nh, ok := neighborAddr(rng, net, d, tp); ok && rng.Intn(2) == 0 {
			sr.NextHop, sr.Drop = nh, false // steer the lookup to another neighbor
		}
		return add(sr)
	case op == 1:
		if nh, ok := neighborAddr(rng, net, d, tp); ok {
			return add(config.StaticRoute{Prefix: p, NextHop: nh})
		}
	case op == 2:
		if in := activeIface(rng, d); in != "" {
			return add(config.StaticRoute{Prefix: p, Iface: in})
		}
	case op == 3 && len(v.StaticRoutes) > 0:
		i := rng.Intn(len(v.StaticRoutes))
		sr := v.StaticRoutes[i]
		v.StaticRoutes = slices.Delete(v.StaticRoutes, i, i+1)
		ed.prefixes = append(ed.prefixes, sr.Prefix)
		ed.hops = append(ed.hops, sr.NextHop)
		return fmt.Sprintf("-static %+v", sr)
	case op == 4 && len(v.StaticRoutes) > 0:
		sr := &v.StaticRoutes[rng.Intn(len(v.StaticRoutes))]
		old := *sr
		sr.AD = 200 + uint8(rng.Intn(50))
		ed.prefixes = append(ed.prefixes, sr.Prefix)
		return fmt.Sprintf("~static %+v AD %d", old, sr.AD)
	case op == 5 && v.BGP != nil:
		if rng.Intn(2) == 0 {
			if p2, ok := connectedPrefix(rng, d); ok {
				p = p2 // announced: the main RIB has it
			}
		}
		v.BGP.Networks = append(v.BGP.Networks, p)
		ed.prefixes = append(ed.prefixes, p)
		return fmt.Sprintf("+network %v", p)
	case op == 6 && v.BGP != nil && len(v.BGP.Networks) > 0:
		i := rng.Intn(len(v.BGP.Networks))
		p := v.BGP.Networks[i]
		v.BGP.Networks = slices.Delete(v.BGP.Networks, i, i+1)
		ed.prefixes = append(ed.prefixes, p)
		return fmt.Sprintf("-network %v", p)
	}
	return add(config.StaticRoute{Prefix: p, Drop: true})
}

// freshPrefix draws a destination for a new statement: a subnet of a
// candidate (usually the lower half of a host subnet, as in an operator's
// null route), or an address block no device uses.
func freshPrefix(rng *rand.Rand, cands []ip4.Prefix) ip4.Prefix {
	if rng.Intn(3) == 0 || len(cands) == 0 {
		return ip4.Prefix{Addr: ip4.Addr(198<<24 | 18<<16 | uint32(rng.Intn(256))<<8), Len: 24}
	}
	c := cands[rng.Intn(len(cands))]
	l := min(int(c.Len)+1+rng.Intn(4), 32)
	host := ip4.Addr(rng.Uint32()) &^ ip4.Mask(c.Len)
	return ip4.Prefix{Addr: c.Addr | host, Len: uint8(l)}.Canonical()
}

// neighborAddr returns the address of the far end of one of d's links.
func neighborAddr(rng *rand.Rand, net *config.Network, d *config.Device, tp *topo.Topology) (ip4.Addr, bool) {
	var out []ip4.Addr
	for _, in := range d.InterfaceNames() {
		for _, e := range tp.EdgesFrom(d.Hostname, in) {
			if p, ok := net.Devices[e.Node2].Interfaces[e.Iface2].Primary(); ok {
				out = append(out, p.Addr)
			}
		}
	}
	if len(out) == 0 {
		return 0, false
	}
	return out[rng.Intn(len(out))], true
}

// ownDeps lists the addresses of D that d's configuration names: its
// static next hops and BGP peers.
func ownDeps(d *config.Device) []ip4.Addr {
	var out []ip4.Addr
	for _, v := range d.VRFs {
		for _, sr := range v.StaticRoutes {
			if sr.NextHop != 0 {
				out = append(out, sr.NextHop)
			}
		}
		if v.BGP != nil {
			for _, n := range v.BGP.Neighbors {
				out = append(out, n.PeerIP)
			}
		}
	}
	slices.Sort(out)
	return out
}

func activeIface(rng *rand.Rand, d *config.Device) string {
	var out []string
	for _, in := range d.InterfaceNames() {
		if d.Interfaces[in].Active && d.Interfaces[in].VRFOrDefault() == config.DefaultVRF {
			out = append(out, in)
		}
	}
	if len(out) == 0 {
		return ""
	}
	return out[rng.Intn(len(out))]
}

func connectedPrefix(rng *rand.Rand, d *config.Device) (ip4.Prefix, bool) {
	var out []ip4.Prefix
	for _, in := range d.InterfaceNames() {
		for _, p := range d.Interfaces[in].Addresses {
			out = append(out, p.Canonical())
		}
	}
	if len(out) == 0 {
		return ip4.Prefix{}, false
	}
	return out[rng.Intn(len(out))], true
}

// coversAny reports whether an address other than zero lies inside one
// of ps.
func coversAny(ps []ip4.Prefix, addrs []ip4.Addr) bool {
	for _, p := range ps {
		for _, a := range addrs {
			if a != 0 && p.Contains(a) {
				return true
			}
		}
	}
	return false
}
