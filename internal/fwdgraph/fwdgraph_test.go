package fwdgraph

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fib"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/testnet"
)

func converged(t *testing.T, net *config.Network) *dataplane.Result {
	t.Helper()
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("dataplane did not converge: %v", dp.Warnings)
	}
	return dp
}

// dump renders a graph for golden comparison: the String summary, every
// node in id order, and every edge in construction order. BDDs appear as
// model counts rather than Refs, so the file pins what each edge admits
// and produces, not how the BDD library happens to number its nodes.
// An edge that rewrites packets also shows the image of the packets
// sourced in 10.0.0.0/8, where every test network is addressed: a NAT
// maps them onto its pool, which the image of all packets would hide
// behind the untranslated identity.
func dump(g *Graph) string {
	f := g.Enc.F
	count := func(r bdd.Ref) string { return fmt.Sprintf("%.9g", f.SatCount(r)) }
	probe := g.Enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.0.0.0/8"))
	var b strings.Builder
	fmt.Fprintln(&b, g.String())
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d %s\n", n.ID, n.Name)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		fmt.Fprintf(&b, "edge %s -> %s label=%s", g.Nodes[e.From].Name, g.Nodes[e.To].Name, count(e.Label))
		if e.Raw != bdd.False {
			fmt.Fprintf(&b, " raw=%s", count(e.Raw))
		}
		if e.Tr != nil {
			b.WriteString(" nat")
		}
		if e.ZoneSet != nil {
			fmt.Fprintf(&b, " zone=%d", *e.ZoneSet)
		}
		if e.ClearZone {
			b.WriteString(" clear-zone")
		}
		if len(e.SetBits) > 0 {
			fmt.Fprintf(&b, " bits=%v", e.SetBits)
		}
		if e.Tr != nil || e.ZoneSet != nil || e.ClearZone || len(e.SetBits) > 0 {
			fmt.Fprintf(&b, " out=%s", count(e.Apply(g.Enc, probe)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenGraphs pins graph construction for the paper's Figure 2
// network, the zone firewall, and the firewall with source NAT on its
// outside interface, so the golden file covers transformation edges as
// well as zone edges.
func TestGoldenGraphs(t *testing.T) {
	cases := []struct {
		name string
		net  *config.Network
	}{
		{"figure2", testnet.Figure2()},
		{"firewall", testnet.Firewall()},
		{"firewall-nat", testnet.FirewallNAT()},
	}
	var got strings.Builder
	for _, tc := range cases {
		g := New(converged(t, tc.net))
		if g.Cancelled {
			t.Fatalf("%s: uncancelled build reported Cancelled", tc.name)
		}
		fmt.Fprintf(&got, "== %s ==\n%s", tc.name, dump(g))
	}
	want, err := os.ReadFile("testdata/graphs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
				break
			}
		}
		t.Fatalf("graph dump differs from testdata/graphs.golden; full dump:\n%s", got.String())
	}
}

// expireAfter is a context whose Err turns non-nil after n calls, so a
// build can be cancelled between devices deterministically.
type expireAfter struct {
	context.Context
	n int
}

func (c *expireAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestNewContextCancelled checks that a cancelled cold Update build
// returns a graph flagged Cancelled whose adjacency index covers exactly
// the nodes and edges it did build, both when cancelled up front and
// between devices.
func TestNewContextCancelled(t *testing.T) {
	dp := converged(t, testnet.Figure2())
	full := New(dp)

	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		devices int
	}{
		{"before-first-device", done, 0},
		{"after-first-device", &expireAfter{Context: context.Background(), n: 1}, 1},
	} {
		g := Update(tc.ctx, nil, dp, hdr.NewEnc(ZoneBits+WaypointBits))
		if !g.Cancelled {
			t.Fatalf("%s: Cancelled not set", tc.name)
		}
		// Only built devices get a FIB node; neighbors they deliver to
		// appear through their ingress nodes alone.
		var built []string
		for _, n := range g.Nodes {
			if n.Kind == KindFwd {
				built = append(built, n.Node_)
			}
		}
		if len(built) != tc.devices || len(g.Nodes) >= len(full.Nodes) {
			t.Fatalf("%s: built %d nodes, FIBs for %v; want a prefix of %d device(s)",
				tc.name, len(g.Nodes), built, tc.devices)
		}
		if len(g.Out) != len(g.Nodes) || len(g.In) != len(g.Nodes) {
			t.Fatalf("%s: index sized %d/%d for %d nodes", tc.name, len(g.Out), len(g.In), len(g.Nodes))
		}
		seen := 0
		for id := range g.Nodes {
			for _, ei := range g.Out[id] {
				if g.Edges[ei].From != id {
					t.Fatalf("%s: Out[%d] lists edge %d from %d", tc.name, id, ei, g.Edges[ei].From)
				}
				seen++
			}
			for _, ei := range g.In[id] {
				if g.Edges[ei].To != id {
					t.Fatalf("%s: In[%d] lists edge %d to %d", tc.name, id, ei, g.Edges[ei].To)
				}
			}
		}
		if seen != len(g.Edges) {
			t.Fatalf("%s: Out indexes %d of %d edges", tc.name, seen, len(g.Edges))
		}
	}
}

// trieWalkSets is the reference LPM computation: walk the trie bottom-up,
// give each entry its prefix minus every longer matching prefix below it,
// and Or that set, less own, into each of the entry's next hops — one Diff
// per entry and one Or per entry and next hop.
func trieWalkSets(enc *hdr.Enc, t *fib.FIB, own bdd.Ref) map[fib.NextHop]bdd.Ref {
	f := enc.F
	perNH := make(map[fib.NextHop]bdd.Ref)
	var walk func(*fib.Node) bdd.Ref // union of the prefixes at or below n
	walk = func(n *fib.Node) bdd.Ref {
		if n == nil {
			return bdd.False
		}
		below := f.Or(walk(n.Children[0]), walk(n.Children[1]))
		if n.Entry == nil {
			return below
		}
		self := enc.Prefix(hdr.DstIP, n.Prefix)
		if set := f.Diff(f.Diff(self, below), own); set != bdd.False {
			for _, nh := range n.Entry.NextHops {
				perNH[nh] = f.Or(perNH[nh], set)
			}
		}
		return self
	}
	walk(t.Root())
	return perNH
}

func catalogNet(t *testing.T, name string) *config.Network {
	t.Helper()
	for _, spec := range netgen.Catalog() {
		if spec.Name == name {
			net, _ := spec.Gen().Parse()
			return net
		}
	}
	t.Fatalf("no %s in the netgen catalog", name)
	return nil
}

func meshNet(seed int64) *config.Network {
	net, _ := netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 50, Degree: 4,
		LansPerNode: 1, Seed: seed}).Parse()
	return net
}

// buildOps builds the graph of dp on a fresh encoder with the given LPM
// computation and returns it with the BDD apply ops the build took.
func buildOps(dp *dataplane.Result, lpm lpmFunc) (*Graph, uint64) {
	g := &Graph{Enc: hdr.NewEnc(ZoneBits + WaypointBits), dp: dp}
	ops0 := g.Enc.F.OpCount()
	g.build(context.Background(), lpm, nil)
	g.index()
	return g, g.Enc.F.OpCount() - ops0
}

// TestLPMSetsMatchTrieWalk pins the structural LPM pass to the per-entry
// reference walk: in one factory, every VRF's per-next-hop sets are the
// same Refs. On NET2 it also gates the saving: the whole graph build takes
// at least 5x fewer apply ops than the same build over the reference walk,
// each on a fresh factory, and both builds give the same graph.
func TestLPMSetsMatchTrieWalk(t *testing.T) {
	nets := []struct {
		name string
		net  func() *config.Network
	}{
		{"NET1", func() *config.Network { return catalogNet(t, "NET1") }},
		{"NET2", func() *config.Network { return catalogNet(t, "NET2") }},
		{"mesh1", func() *config.Network { return meshNet(1) }},
		{"mesh7", func() *config.Network { return meshNet(7) }},
		{"mesh3", func() *config.Network { return meshNet(3) }},
		{"firewall", testnet.Firewall},
		{"firewall-nat", testnet.FirewallNAT},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			dp := converged(t, tc.net())
			enc := hdr.NewEnc(ZoneBits + WaypointBits)
			vrfs := 0
			for _, name := range dp.Network.DeviceNames() {
				d := dp.Network.Devices[name]
				own := deviceIPs(enc, d)
				for vrf, vs := range dp.Nodes[name].VRFs {
					if vs == nil || vs.FIB == nil {
						continue
					}
					vrfs++
					got, want := lpmSets(enc, vs.FIB, own), trieWalkSets(enc, vs.FIB, own)
					if len(got) != len(want) {
						t.Errorf("%s/%s: %d next hops, reference has %d", name, vrf, len(got), len(want))
					}
					for nh, set := range want {
						if got[nh] != set {
							t.Errorf("%s/%s: set of next hop %v differs from the reference", name, vrf, nh)
						}
					}
				}
			}
			if vrfs == 0 {
				t.Fatal("no FIB checked")
			}
			if tc.name != "NET2" {
				return
			}
			g, ops := buildOps(dp, lpmSets)
			ref, refOps := buildOps(dp, trieWalkSets)
			t.Logf("NET2 graph build: %d apply ops, reference walk %d (%.1fx); %d edges",
				ops, refOps, float64(refOps)/float64(ops), len(g.Edges))
			if refOps < 5*ops {
				t.Errorf("graph build took %d apply ops, reference walk %d: want at least 5x fewer", ops, refOps)
			}
			if dump(g) != dump(ref) {
				t.Error("graph differs from the one built over the reference walk")
			}
		})
	}
}

// TestLPMSetsMatchLookup checks the LPM sets against concrete lookup on
// seeded random FIBs with a default route, nested prefixes, /31 and /32
// host routes, ECMP and drop entries, and a few owned addresses: a
// destination is in a next hop's set exactly when fib.Lookup carries that
// next hop and the destination is not owned. The probes are the first and
// last address of every prefix, the addresses just outside it, and random
// addresses.
func TestLPMSetsMatchLookup(t *testing.T) {
	pool := []fib.NextHop{
		{Iface: "e0", IP: ip4.MustParseAddr("10.0.0.2"), Node: "r2"},
		{Iface: "e0", IP: ip4.MustParseAddr("10.0.0.3"), Node: "r3"},
		{Iface: "e1", IP: ip4.MustParseAddr("10.0.1.2")},
		{Iface: "e2"},
		{Drop: true},
	}
	for seed := int64(1); seed <= 25; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		nhs := func() []fib.NextHop {
			if rnd.Intn(6) == 0 {
				return []fib.NextHop{pool[len(pool)-1]}
			}
			perm := rnd.Perm(len(pool) - 1)
			out := make([]fib.NextHop, 1+rnd.Intn(3))
			for i := range out {
				out[i] = pool[perm[i]]
			}
			return out
		}
		t0 := fib.New()
		prefixes := []ip4.Prefix{{}}
		for len(prefixes) < 40 {
			var p ip4.Prefix
			switch parent := prefixes[rnd.Intn(len(prefixes))]; rnd.Intn(4) {
			case 0: // anywhere
				p = ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(1 + rnd.Intn(32))}
			case 1: // host route or point-to-point link
				p = ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(31 + rnd.Intn(2))}
			default: // nested under an earlier prefix
				if parent.Len == 32 {
					continue
				}
				l := parent.Len + uint8(1+rnd.Intn(int(32-parent.Len)))
				p = ip4.Prefix{Addr: parent.First() | ip4.Addr(rnd.Uint32())&^ip4.Mask(parent.Len), Len: l}
			}
			prefixes = append(prefixes, p.Canonical())
		}
		for _, p := range prefixes {
			t0.Add(fib.Entry{Prefix: p, NextHops: nhs()})
		}
		var probes []ip4.Addr
		for _, p := range prefixes {
			probes = append(probes, p.First(), p.Last(), p.First()-1, p.Last()+1)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, ip4.Addr(rnd.Uint32()))
		}

		enc := hdr.NewEnc(0)
		own, owned := bdd.False, make(map[ip4.Addr]bool)
		for i := 0; i < 6; i++ {
			a := probes[rnd.Intn(len(probes))]
			owned[a] = true
			own = enc.F.Or(own, enc.FieldEq(hdr.DstIP, uint32(a)))
		}
		sets := lpmSets(enc, t0, own)
		for _, a := range probes {
			pkt := enc.PacketBDD(hdr.Packet{DstIP: a})
			e := t0.Lookup(a)
			for _, nh := range pool {
				want := e != nil && carries(e, nh) && !owned[a]
				if got := enc.F.And(pkt, sets[nh]) != bdd.False; got != want {
					t.Fatalf("seed %d, dst %s, next hop %v: in set %v, lookup says %v", seed, a, nh, got, want)
				}
			}
		}
	}
}

// TestRebuildAddsNoNodes checks that building one data plane's graph
// twice on a single factory adds no BDD node the second time: every
// label, and every intermediate set it is built from, is computed in a
// fixed order, so a rebuild finds each of them in the unique table. A
// union in map order made new intermediate nodes on every rebuild, and a
// long-lived shared factory grew with every edit.
func TestRebuildAddsNoNodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() *config.Network
	}{
		{"NET2", func() *config.Network { return catalogNet(t, "NET2") }},
		{"firewall-nat", testnet.FirewallNAT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dp := converged(t, tc.net())
			enc := hdr.NewEnc(ZoneBits + WaypointBits)
			NewWithEnc(dp, enc)
			nodes := enc.F.Size()
			NewWithEnc(dp, enc)
			if grown := enc.F.Size() - nodes; grown != 0 {
				t.Errorf("rebuilding the graph added %d BDD nodes, want 0", grown)
			}
		})
	}
}

// TestDelta pins Delta's cases that need no edit (the differential test
// in internal/core checks it against full compares under edits): a graph
// against itself and against a cold rebuild on the same encoder forwards
// alike everywhere, while a graph that rewrites headers, one on another
// encoder, or a cancelled one leaves every header in question.
func TestDelta(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() *config.Network
	}{
		{"NET2", func() *config.Network { return catalogNet(t, "NET2") }},
		{"firewall", testnet.Firewall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dp := converged(t, tc.net())
			enc := hdr.NewEnc(ZoneBits + WaypointBits)
			g := NewWithEnc(dp, enc)
			if h := Delta(g, g); h != bdd.False {
				t.Errorf("Delta(g, g) = %d, want False", h)
			}
			if h := Delta(g, NewWithEnc(dp, enc)); h != bdd.False {
				t.Errorf("Delta(g, cold rebuild) = %d, want False", h)
			}
			if h := Delta(g, New(dp)); h != bdd.True {
				t.Errorf("Delta across encoders = %d, want True", h)
			}
			cut := Update(&expireAfter{Context: context.Background(), n: 1}, nil, dp, enc)
			if h := Delta(g, cut); h != bdd.True {
				t.Errorf("Delta against a cancelled graph = %d, want True", h)
			}
		})
	}
	t.Run("firewall-nat", func(t *testing.T) {
		dp := converged(t, testnet.FirewallNAT())
		enc := hdr.NewEnc(ZoneBits + WaypointBits)
		g := NewWithEnc(dp, enc)
		if !g.HasTransforms() {
			t.Fatal("firewall-nat graph has no transform edge")
		}
		if h := Delta(g, NewWithEnc(dp, enc)); h != bdd.True {
			t.Errorf("Delta on a NAT graph = %d, want True", h)
		}
	})
}
