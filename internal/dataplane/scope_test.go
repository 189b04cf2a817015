package dataplane_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/fib"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/topo"
)

// recursiveNet is a three-router eBGP chain where the dependency set
// decides the answer: r1 and r2 peer between loopbacks reached over
// static /32s (session endpoints), r1 reaches 10.60.0.0/16 through a
// recursive static whose next hop only 10.20.0.0/24 resolves, r2's
// import policy rewrites r3's next hop to 10.7.7.7, which only a static
// for 10.7.7.0/24 resolves, and r2 translates packets for the address
// 203.0.113.10 arriving from r1 to 10.50.1.10, a destination no scope
// around 203.0.113.10 overlaps.
func recursiveNet() *netgen.Snapshot {
	r1 := `hostname r1
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
interface Gi0/1
 ip address 10.0.12.1 255.255.255.252
interface lan
 ip address 192.168.1.1 255.255.255.0
ip route 10.9.9.0 255.255.255.0 10.0.23.2
ip route 10.0.23.0 255.255.255.252 10.0.12.2
ip route 2.2.2.2 255.255.255.255 10.0.12.2
ip route 10.60.0.0 255.255.0.0 10.20.0.1
ip route 10.20.0.0 255.255.255.0 10.0.12.2
ip route 203.0.113.0 255.255.255.0 10.0.12.2
router bgp 65001
 network 192.168.1.0 mask 255.255.255.0
 neighbor 2.2.2.2 remote-as 65002
 neighbor 2.2.2.2 update-source Loopback0
 neighbor 2.2.2.2 ebgp-multihop 2
end
`
	r2 := `hostname r2
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
interface Gi0/1
 ip address 10.0.12.2 255.255.255.252
interface Gi0/2
 ip address 10.0.23.1 255.255.255.252
ip route 1.1.1.1 255.255.255.255 10.0.12.1
ip route 10.7.7.0 255.255.255.0 10.0.23.2
ip route 10.20.0.0 255.255.255.0 10.0.23.2
ip route 10.60.0.0 255.255.0.0 10.0.23.2
ip access-list extended VIP
 permit ip any host 203.0.113.10
ip nat destination list VIP pool 10.50.1.10 10.50.1.10 interface Gi0/1
route-map FROM_R3 permit 10
 set ip next-hop 10.7.7.7
router bgp 65002
 neighbor 1.1.1.1 remote-as 65001
 neighbor 1.1.1.1 update-source Loopback0
 neighbor 1.1.1.1 ebgp-multihop 2
 neighbor 10.0.23.2 remote-as 65003
 neighbor 10.0.23.2 route-map FROM_R3 in
end
`
	r3 := `hostname r3
interface Gi0/1
 ip address 10.0.23.2 255.255.255.252
interface lan
 ip address 10.50.1.1 255.255.255.0
interface lan2
 ip address 10.9.9.1 255.255.255.0
ip route 10.50.0.0 255.255.0.0 Null0
router bgp 65003
 network 10.50.0.0 mask 255.255.0.0
 network 10.9.9.0 mask 255.255.255.0
 neighbor 10.0.23.1 remote-as 65002
end
`
	return &netgen.Snapshot{Name: "recursive", Devices: []netgen.DeviceText{
		{Hostname: "r1", Dialect: netgen.IOS, Text: r1},
		{Hostname: "r2", Dialect: netgen.IOS, Text: r2},
		{Hostname: "r3", Dialect: netgen.IOS, Text: r3},
	}}
}

func catalogNet(name string) *netgen.Snapshot {
	for _, s := range netgen.Catalog() {
		if s.Name == name {
			return s.Gen()
		}
	}
	panic("no catalog network " + name)
}

// TestScopedMatchesFull is the differential check of the query scope.
// Generated networks are crossed with random scopes Q and random k=1
// failure scenarios; for each draw the scoped run must agree with the
// full run on
//
//   - every BGP session (the dependency set D holds their endpoints);
//   - every FIB entry the scoped run has (no prefix appears that the full
//     run lacks, and none differs, next hops included);
//   - every full FIB entry overlapping Q;
//   - the longest-prefix match of every address in D;
//   - the reachability verdicts for Q, default (all-pairs) and explicit
//     sources, compared as BDD packet sets on one shared factory.
//
// recursiveNet and the iBGP-over-OSPF WAN are the networks where D
// matters: without their session endpoints and next hops a scoped run
// loses the routes the full run has.
func TestScopedMatchesFull(t *testing.T) {
	type tc struct {
		name  string
		gen   func() *netgen.Snapshot
		draws int
	}
	cases := []tc{
		{"recursive", recursiveNet, 40},
		{"wan-ibgp", func() *netgen.Snapshot {
			return netgen.WAN(netgen.WANParams{Name: "wan", Nodes: 12, CoreMesh: 4, TransitPeers: 3, Chords: 3})
		}, 8},
		{"mesh-1", func() *netgen.Snapshot {
			return netgen.Random(netgen.RandomParams{Name: "m1", Nodes: 16, Degree: 3, LansPerNode: 2, Seed: 1})
		}, 6},
		{"mesh-2", func() *netgen.Snapshot {
			return netgen.Random(netgen.RandomParams{Name: "m2", Nodes: 24, Degree: 4, LansPerNode: 1, Seed: 2})
		}, 6},
		{"fabric", func() *netgen.Snapshot {
			return netgen.Fabric(netgen.FabricParams{Name: "f", Spines: 2, Pods: 3, AggPerPod: 2, TorPerPod: 3,
				HostNetsPerTor: 2, Multipath: true, EdgeACLs: true})
		}, 6},
		{"NET1", func() *netgen.Snapshot { return catalogNet("NET1") }, 3},
		{"NET2", func() *netgen.Snapshot { return catalogNet("NET2") }, 3},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			draws := c.draws
			if testing.Short() {
				draws = (draws + 2) / 3
			}
			checkScopedDraws(t, c.gen(), int64(i+1), draws)
		})
	}
}

func checkScopedDraws(t *testing.T, snap *netgen.Snapshot, seed int64, draws int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl := pipeline.New(pipeline.Config{})
	full := core.LoadGeneratedWith(pl, snap)
	if len(full.Warnings) > 0 {
		t.Fatalf("parse warnings: %v", full.Warnings)
	}
	base := full.DataPlane()
	if full.Degraded() {
		t.Fatalf("full baseline degraded: %v", full.Diags())
	}
	cands := scopeCandidates(full.Net)
	links := base.Topology.Links()
	names := full.Net.DeviceNames()
	hosts := full.HostFacing()
	for d := 0; d < draws; d++ {
		q := drawScope(rng, cands)
		sc := drawScenario(rng, links, names)
		label := fmt.Sprintf("draw %d: Q=%v scenario=%q", d, q, sc.ID())

		fs := full.Apply(sc)
		scopedBase := full.Apply(core.Scenario{})
		scopedBase.SetDataPlaneOptions(dataplane.Options{Scope: q})
		ss := scopedBase.Apply(sc)

		fdp, sdp := fs.DataPlane(), ss.DataPlane()
		if fs.Degraded() {
			t.Logf("%s: full run degraded, nothing to compare", label)
			continue
		}
		if ss.Degraded() {
			t.Errorf("%s: scoped run degraded where the full run is clean: %v", label, ss.Diags())
			continue
		}
		if want := dataplane.Scope(q).Canonical(); !reflect.DeepEqual(sdp.Scope, want) || fdp.Scope != nil {
			t.Errorf("%s: result scopes %v / %v, want %v / nil", label, sdp.Scope, fdp.Scope, want)
		}
		compareScopedDataPlane(t, label, q, fdp, sdp)

		var srcs []reach.SourceLoc
		for _, k := range rng.Perm(len(hosts)) {
			if len(srcs) == 3 {
				break
			}
			srcs = append(srcs, hosts[k])
		}
		for _, params := range []core.ReachabilityParams{
			{DstIPs: q},
			{Sources: srcs, DstIPs: q},
		} {
			compareFlows(t, label, fs.Reachability(params), ss.Reachability(params))
		}
	}
}

// scopeCandidates lists the prefixes a question would plausibly ask about:
// interface subnets, static prefixes and BGP network statements.
func scopeCandidates(net *config.Network) []ip4.Prefix {
	seen := make(map[ip4.Prefix]bool)
	var out []ip4.Prefix
	add := func(p ip4.Prefix) {
		p = p.Canonical()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, name := range net.DeviceNames() {
		d := net.Devices[name]
		for _, in := range d.InterfaceNames() {
			for _, p := range d.Interfaces[in].Addresses {
				add(p)
			}
		}
		for _, cv := range d.VRFs {
			for _, sr := range cv.StaticRoutes {
				add(sr.Prefix)
			}
			if cv.BGP != nil {
				for _, p := range cv.BGP.Networks {
					add(p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// drawScope picks one or two candidates, each kept as is, widened to a
// supernet, or narrowed to a random subnet inside it.
func drawScope(rng *rand.Rand, cands []ip4.Prefix) []ip4.Prefix {
	q := make([]ip4.Prefix, 1+rng.Intn(2))
	for i := range q {
		p := cands[rng.Intn(len(cands))]
		switch rng.Intn(3) {
		case 1:
			l := int(p.Len) - 1 - rng.Intn(8)
			p = ip4.Prefix{Addr: p.Addr, Len: uint8(max(l, 8))}.Canonical()
		case 2:
			l := int(p.Len) + rng.Intn(33-int(p.Len))
			host := ip4.Addr(rng.Uint32()) &^ ip4.Mask(p.Len)
			p = ip4.Prefix{Addr: p.Addr | host, Len: uint8(l)}.Canonical()
		}
		q[i] = p
	}
	return q
}

// drawScenario draws a random k=1 failure (a link or a node), or none.
func drawScenario(rng *rand.Rand, links []topo.Link, names []string) core.Scenario {
	switch n := rng.Intn(6); {
	case n == 0:
		return core.Scenario{}
	case n <= 3 && len(links) > 0:
		return core.Scenario{LinksDown: []topo.Link{links[rng.Intn(len(links))]}}
	default:
		return core.Scenario{NodesDown: []string{names[rng.Intn(len(names))]}}
	}
}

// dependencyAddrs is the test's own derivation of D from the full run:
// both endpoints of its sessions, and the static next hops and route-map
// next-hop constants of the devices that are up.
func dependencyAddrs(r *dataplane.Result) []ip4.Addr {
	var out []ip4.Addr
	for _, s := range r.Sessions {
		out = append(out, s.LocalIP, s.PeerIP)
	}
	for _, ns := range r.Nodes {
		d := ns.Device
		for _, cv := range d.VRFs {
			for _, sr := range cv.StaticRoutes {
				out = append(out, sr.NextHop)
			}
		}
		for _, rm := range d.RouteMaps {
			for _, c := range rm.Clauses {
				for _, s := range c.Sets {
					if s.Kind == config.SetNextHop {
						out = append(out, s.NextHop)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return slices.Compact(out)
}

func renderEntry(e *fib.Entry) string {
	if e == nil {
		return "<none>"
	}
	return fmt.Sprintf("%v -> %v", e.Prefix, e.NextHops)
}

func compareScopedDataPlane(t *testing.T, label string, q []ip4.Prefix, full, scoped *dataplane.Result) {
	t.Helper()
	if len(full.Sessions) != len(scoped.Sessions) {
		t.Errorf("%s: %d sessions, full run has %d", label, len(scoped.Sessions), len(full.Sessions))
	} else {
		for i := range full.Sessions {
			if f, s := full.Sessions[i].String(), scoped.Sessions[i].String(); f != s {
				t.Errorf("%s: session %s, full run %s", label, s, f)
			}
		}
	}
	deps := dependencyAddrs(full)
	for node, fns := range full.Nodes {
		sns := scoped.Nodes[node]
		if sns == nil {
			t.Errorf("%s: node %s missing from the scoped run", label, node)
			continue
		}
		for vn, fvs := range fns.VRFs {
			svs := sns.VRFs[vn]
			where := label + ": " + node + "/" + vn
			fe := make(map[ip4.Prefix]string)
			for _, e := range fvs.FIB.Entries() {
				fe[e.Prefix] = renderEntry(&e)
			}
			se := make(map[ip4.Prefix]bool)
			for _, e := range svs.FIB.Entries() {
				se[e.Prefix] = true
				if got, want := renderEntry(&e), fe[e.Prefix]; got != want {
					t.Errorf("%s: scoped FIB entry %s, full %s", where, got, want)
				}
			}
			for p, want := range fe {
				if se[p] {
					continue
				}
				for _, qp := range q {
					if qp.Overlaps(p) {
						t.Errorf("%s: scoped FIB lacks %s, which overlaps %v", where, want, qp)
						break
					}
				}
			}
			for _, a := range deps {
				if a == 0 {
					continue
				}
				if got, want := renderEntry(svs.FIB.Lookup(a)), renderEntry(fvs.FIB.Lookup(a)); got != want {
					t.Errorf("%s: lookup of dependency %v gives %s, full %s", where, a, got, want)
				}
			}
		}
	}
}

func compareFlows(t *testing.T, label string, full, scoped []core.FlowResult) {
	t.Helper()
	render := func(fr []core.FlowResult) string {
		var b strings.Builder
		for _, f := range fr {
			fmt.Fprintf(&b, "%v delivered=%d failed=%d; ", f.Source, f.Delivered, f.Failed)
		}
		return b.String()
	}
	if got, want := render(scoped), render(full); got != want {
		t.Errorf("%s: reachability differs\nscoped %s\n  full %s", label, got, want)
	}
}
