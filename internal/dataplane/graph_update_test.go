package dataplane_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
)

// TestGraphUpdateMatchesCold is the differential check of fwdgraph.Update.
// On every network of TestEditUpdateMatchesCold it draws that test's
// edits, plus interface-address edits (a link address moved inside its
// subnet, so the adjacency stays) and ACL edits (a new egress filter),
// which reach the graph through a cold data plane. Each edit is checked
// unscoped and under a scope drawn as TestScopedMatchesFull draws them,
// and each draw adds one of that test's failure scenarios under the same
// scope, updated from the scoped baseline's graph as a sweep class is. Every updated graph
// must equal a cold build on the same factory: the same nodes in the
// same order and the same edges, with Ref-equal labels and raw labels.
// The test also requires that the draws reuse fragments and rebuild
// some, so it cannot pass by always building cold.
func TestGraphUpdateMatchesCold(t *testing.T) {
	var reused, rebuilt int
	for i, c := range updateNets {
		t.Run(c.name, func(t *testing.T) {
			draws := c.draws
			if testing.Short() {
				draws = (draws + 2) / 3
			}
			r, b := checkGraphDraws(t, c.gen(), int64(i+1), draws)
			t.Logf("%d draws: %d fragments reused, %d rebuilt", 3*draws, r, b)
			reused += r
			rebuilt += b
		})
	}
	if reused == 0 || rebuilt == 0 {
		t.Errorf("%d fragments reused and %d rebuilt: the draws must do both", reused, rebuilt)
	}
}

func checkGraphDraws(t *testing.T, snap *netgen.Snapshot, seed int64, draws int) (reused, rebuilt int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := core.LoadGeneratedWith(pipeline.Disabled(), snap).Net
	base := dataplane.Run(net, dataplane.Options{})
	enc := hdr.NewEnc(fwdgraph.ZoneBits + fwdgraph.WaypointBits)
	baseG := fwdgraph.NewWithEnc(base, enc)
	deps := dependencyAddrs(base)
	cands := scopeCandidates(net)
	links := base.Topology.Links()
	names := net.DeviceNames()
	// check updates from bg to dp, compares with a cold build and tallies
	// the fragments.
	check := func(label string, bg *fwdgraph.Graph, dp *dataplane.Result) {
		got := fwdgraph.Update(context.Background(), bg, dp, enc)
		cold := fwdgraph.NewWithEnc(dp, enc)
		if g, c := graphDump(got), graphDump(cold); g != c {
			t.Errorf("%s: updated graph differs from a cold build:\n%s", label, firstDiff(g, c))
		}
		reused += got.Reused
		rebuilt += countFwdDevices(got) - got.Reused
	}
	for d := 0; d < draws; d++ {
		var ed edit
		switch rng.Intn(4) {
		case 0:
			ed = drawAddressEdit(rng, net, base)
		case 1:
			ed = drawACLEdit(rng, net)
		default:
			ed = drawEdit(rng, net, base, deps, cands)
		}
		dp, ok := dataplane.Update(context.Background(), base, ed.net, dataplane.Options{})
		if !ok {
			dp = dataplane.Run(ed.net, dataplane.Options{})
		}
		check(fmt.Sprintf("edit %d: %s", d, ed.desc), baseG, dp)

		// Under a scope a FIB holds few routes besides the connected ones,
		// so the far ends of an edited link keep their FIBs and read the
		// edited addresses only through their adjacencies. An edit is
		// checked under the scope of a question about what it touched (its
		// prefixes) when it has one, else under the drawn scope.
		q := drawScope(rng, cands)
		scope := q
		if len(ed.prefixes) > 0 {
			scope = ed.prefixes
		}
		opts := dataplane.Options{Scope: scope}
		check(fmt.Sprintf("scoped edit %d: Q=%v %s", d, scope, ed.desc),
			fwdgraph.NewWithEnc(dataplane.Run(net, opts), enc), dataplane.Run(ed.net, opts))
		sc := drawScenario(rng, links, names)
		opts = dataplane.Options{Scope: q}
		scopedG := fwdgraph.NewWithEnc(dataplane.Run(net, opts), enc)
		opts.Suppress = dataplane.Suppression{Links: sc.LinksDown, Nodes: sc.NodesDown}
		check(fmt.Sprintf("scenario %d: Q=%v %q", d, q, sc.ID()), scopedG, dataplane.Run(net, opts))
	}
	return reused, rebuilt
}

// countFwdDevices counts the devices a graph built, by their forwarding
// nodes' hostnames; a device with no FIB counts as none, which only
// lowers the rebuilt tally.
func countFwdDevices(g *fwdgraph.Graph) int {
	seen := make(map[string]bool)
	for _, n := range g.Nodes {
		if n.Kind == fwdgraph.KindFwd {
			seen[n.Node_] = true
		}
	}
	return len(seen)
}

// graphDump renders a graph exactly: every node in id order and every edge
// in order with its label and raw label as Refs, so two graphs on one
// factory dump alike only if their labels are Ref-equal. A transformation
// shows as its images of all packets and of the packets sourced in
// 10.0.0.0/8.
func graphDump(g *fwdgraph.Graph) string {
	probe := g.Enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.0.0.0/8"))
	var b strings.Builder
	fmt.Fprintln(&b, g.String(), g.Cancelled)
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d %d %s %s %s\n", n.ID, n.Kind, n.Name, n.Node_, n.Extra)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		fmt.Fprintf(&b, "edge %d -> %d label=%d raw=%d clear=%v bits=%v", e.From, e.To, e.Label, e.Raw, e.ClearZone, e.SetBits)
		if e.Tr != nil {
			fmt.Fprintf(&b, " nat=%d/%d", g.Enc.Apply(bdd.True, e.Tr), g.Enc.Apply(probe, e.Tr))
		}
		if e.ZoneSet != nil {
			fmt.Fprintf(&b, " zone=%d", *e.ZoneSet)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d: got %q, cold %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, cold %d", len(gl), len(wl))
}

// drawAddressEdit gives a linked interface a free host address of its
// subnet, moving its primary address there or adding it as a secondary.
// Either keeps the adjacency. A secondary also keeps the next hops that
// neighbours route through, so the far end's fragment sees the edit only
// through the addresses it reads. The edit's prefix is the subnet. With no
// such interface (every link a /31) it falls back to an ACL edit.
func drawAddressEdit(rng *rand.Rand, net *config.Network, base *dataplane.Result) edit {
	used := make(map[ip4.Addr]bool)
	type slot struct{ dev, iface string }
	var linked []slot
	for _, name := range net.DeviceNames() {
		d := net.Devices[name]
		for _, in := range d.InterfaceNames() {
			for _, p := range d.Interfaces[in].Addresses {
				used[p.Addr] = true
			}
			if len(base.Topology.EdgesFrom(name, in)) > 0 {
				linked = append(linked, slot{name, in})
			}
		}
	}
	for _, k := range rng.Perm(len(linked)) {
		s := linked[k]
		i := net.Devices[s.dev].Interfaces[s.iface]
		p := i.Addresses[0]
		if p.Len > 30 || p.Len < 22 {
			continue
		}
		for _, off := range rng.Perm(1 << (32 - p.Len)) {
			a := ip4.Prefix{Addr: p.First() + ip4.Addr(off), Len: p.Len}
			if used[a.Addr] {
				continue
			}
			ni := *i
			desc := fmt.Sprintf("%s %s address %v -> %v", s.dev, s.iface, p.Addr, a.Addr)
			if rng.Intn(2) == 0 {
				ni.Addresses = append([]ip4.Prefix{a}, i.Addresses[1:]...)
			} else {
				ni.Addresses = append(slices.Clone(i.Addresses), a)
				desc = fmt.Sprintf("%s %s +secondary %v", s.dev, s.iface, a.Addr)
			}
			ed := editInterface(net, s.dev, s.iface, &ni, desc)
			ed.prefixes = []ip4.Prefix{p.Canonical()}
			return ed
		}
	}
	return drawACLEdit(rng, net)
}

// drawACLEdit gives one active interface of a random device a new egress
// filter that denies a random /24 of 10.0.0.0/8 and permits the rest.
func drawACLEdit(rng *rand.Rand, net *config.Network) edit {
	names := net.DeviceNames()
	d := net.Devices[names[rng.Intn(len(names))]]
	in := activeIface(rng, d)
	if in == "" {
		in = d.InterfaceNames()[0]
	}
	deny := ip4.Prefix{Addr: ip4.Addr(10<<24 | uint32(rng.Intn(1<<16))<<8), Len: 24}
	a := &acl.ACL{Name: "GRAPH-EDIT", Lines: []acl.Line{
		{Action: acl.Deny, Protocol: -1, DstIPs: []ip4.Prefix{deny}, ICMPType: -1, ICMPCode: -1},
		{Action: acl.Permit, Protocol: -1, ICMPType: -1, ICMPCode: -1},
	}}
	ni := *d.Interfaces[in]
	ni.OutACL = a.Name
	ed := editInterface(net, d.Hostname, in, &ni, fmt.Sprintf("%s %s out-acl deny %v", d.Hostname, in, deny))
	nd := ed.net.Devices[d.Hostname]
	nd.ACLs = maps.Clone(nd.ACLs)
	if nd.ACLs == nil {
		nd.ACLs = make(map[string]*acl.ACL)
	}
	nd.ACLs[a.Name] = a
	return ed
}

// editInterface returns net with device dev's interface iface replaced by
// i, copying what it changes so every other device stays pointer-identical.
func editInterface(net *config.Network, dev, iface string, i *config.Interface, desc string) edit {
	ed := edit{net: &config.Network{Devices: maps.Clone(net.Devices), Warnings: net.Warnings}, desc: desc}
	d := *net.Devices[dev]
	d.Interfaces = maps.Clone(d.Interfaces)
	d.Interfaces[iface] = i
	ed.net.Devices[dev] = &d
	return ed
}
