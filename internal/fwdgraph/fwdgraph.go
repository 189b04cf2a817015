// Package fwdgraph builds the dataflow graph of paper §4.2.1: nodes for
// FIB lookups, ACL applications, NAT stages, and per-interface sources and
// sinks, with edges labeled by BDDs describing the packet sets that can
// traverse them. The graph encodes exact longest-prefix-match semantics
// (derived from the FIB trie), first-match ACL semantics, packet
// transformations as relation BDDs, and zone-based firewall behavior using
// a handful of reused extension variables (paper §4.2.3).
package fwdgraph

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fib"
	"repro/internal/hdr"
)

// Kind classifies graph nodes.
type Kind uint8

// Node kinds.
const (
	KindSource Kind = iota // packets entering at an interface
	KindPreIn              // post-arrival processing stage
	KindFwd                // VRF FIB lookup
	KindEgress             // per-interface egress stage
	KindSink
)

// Sink names mirror the traceroute dispositions so the two engines can be
// compared directly (paper §4.3.2).
const (
	SinkAccepted        = "accepted"
	SinkDeniedIn        = "denied-in"
	SinkDeniedOut       = "denied-out"
	SinkDeniedZone      = "denied-zone"
	SinkNoRoute         = "no-route"
	SinkNullRouted      = "null-routed"
	SinkExitsNetwork    = "exits-network"
	SinkDeliveredToHost = "delivered-to-host"
)

// Node is one dataflow graph node.
type Node struct {
	ID    int
	Kind  Kind
	Name  string // canonical name, e.g. "fwd:r1:default"
	Node_ string // device hostname ("" for shared sinks)
	Extra string // interface / vrf / sink label
}

// Edge carries packets from From to To. Traversal applies, in order:
// intersect with Label, apply the transformation, set the zone field,
// clear the zone field, set waypoint bits.
type Edge struct {
	From, To  int
	Label     bdd.Ref        // packets that may traverse (pre-transform)
	Tr        *hdr.Transform // optional packet transformation
	ZoneSet   *uint32        // record the ingress zone id (erase + constrain)
	ClearZone bool           // erase zone bits (leaving a device)
	SetBits   []int          // waypoint bits forced to 1 on traversal

	// Raw, when non-False, is the pre-filter label of a filtering edge
	// (ingress/egress ACL, zone policy). Bidirectional analysis uses it to
	// instrument the session fast path: return traffic matching an
	// installed session traverses with Raw instead of Label (§4.2.3).
	Raw bdd.Ref
}

// Apply pushes a packet set across the edge.
func (e *Edge) Apply(enc *hdr.Enc, set bdd.Ref) bdd.Ref {
	f := enc.F
	set = f.And(set, e.Label)
	if set == bdd.False {
		return bdd.False
	}
	if e.Tr != nil {
		set = enc.Apply(set, e.Tr)
	}
	if e.ZoneSet != nil {
		set = f.And(f.Exists(set, enc.ExtVarSet(0, ZoneBits)), enc.ExtEq(0, ZoneBits, *e.ZoneSet))
	}
	if e.ClearZone {
		set = f.Exists(set, enc.ExtVarSet(0, ZoneBits))
	}
	for _, b := range e.SetBits {
		set = enc.SetBit(set, b)
	}
	return set
}

// ApplyReverse computes the packet sets at the tail that can produce the
// given set at the head — the "reverse BDD" step of paper §4.2.3 — by
// undoing Apply's steps in reverse order. The result is the exact
// pre-image: a packet at the tail is in it iff Apply carries it into set.
// A zone write keeps only the head packets carrying the written zone,
// whose zone bits the tail may then hold with any value. Waypoint bits
// are not reversed (reverse queries do not use waypoints).
func (e *Edge) ApplyReverse(enc *hdr.Enc, set bdd.Ref) bdd.Ref {
	f := enc.F
	if e.ClearZone {
		set = f.Exists(set, enc.ExtVarSet(0, ZoneBits))
	}
	if e.ZoneSet != nil {
		set = f.AndExists(set, enc.ExtEq(0, ZoneBits, *e.ZoneSet), enc.ExtVarSet(0, ZoneBits))
	}
	if e.Tr != nil {
		set = enc.ReverseApply(set, e.Tr)
	}
	return f.And(set, e.Label)
}

// Graph is the dataflow graph plus its BDD encoder.
type Graph struct {
	Enc   *hdr.Enc
	Nodes []Node
	Edges []Edge
	Out   [][]int // adjacency: edge indices by From
	In    [][]int // edge indices by To

	// Cancelled reports that construction stopped early because the
	// context expired; the graph covers a prefix of the devices.
	Cancelled bool

	ids map[string]int

	dp *dataplane.Result
}

// ZoneBits is the number of extension variables reserved for firewall
// zones ("in practice we have never needed more than four bits", §4.2.3).
const ZoneBits = 4

// WaypointBits is the number of extension variables reserved for waypoint
// tracking (typically 1 is enough, §4.2.3).
const WaypointBits = 2

// New builds the dataflow graph for a computed data plane.
//
// Construction of a single graph is deliberately serial: every edge label
// is a BDD op against one shared factory, and the factory's hash-consed
// unique table and operation caches are unsynchronized (see bdd.Factory).
// A graph and the analysis over it therefore own one factory; work that
// runs in parallel builds a separate graph per worker rather than sharing
// one.
func New(dp *dataplane.Result) *Graph {
	return NewContext(context.Background(), dp)
}

// NewContext is New with cooperative cancellation: construction checks the
// context between devices and stops early when it expires, returning a
// partial graph with Cancelled set. A partial graph is structurally valid
// (indexes are built) but covers only a prefix of the devices, so queries
// against it see a degraded network.
func NewContext(ctx context.Context, dp *dataplane.Result) *Graph {
	g := &Graph{
		Enc: hdr.NewEnc(ZoneBits + WaypointBits),
		ids: make(map[string]int),
		dp:  dp,
	}
	g.build(ctx, lpmSets)
	g.index()
	return g
}

// NewWithEnc builds the graph reusing an existing encoder (for tests that
// need to construct query BDDs with the same factory).
func NewWithEnc(dp *dataplane.Result, enc *hdr.Enc) *Graph {
	return NewWithEncContext(context.Background(), dp, enc)
}

// NewWithEncContext is NewWithEnc with the cancellation behavior of
// NewContext.
func NewWithEncContext(ctx context.Context, dp *dataplane.Result, enc *hdr.Enc) *Graph {
	g := &Graph{Enc: enc, ids: make(map[string]int), dp: dp}
	g.build(ctx, lpmSets)
	g.index()
	return g
}

func (g *Graph) node(kind Kind, name, device, extra string) int {
	if id, ok := g.ids[name]; ok {
		return id
	}
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name, Node_: device, Extra: extra})
	g.ids[name] = id
	return id
}

func (g *Graph) edge(from, to int, label bdd.Ref) *Edge {
	g.Edges = append(g.Edges, Edge{From: from, To: to, Label: label})
	return &g.Edges[len(g.Edges)-1]
}

// Lookup returns the node id by canonical name.
func (g *Graph) Lookup(name string) (int, bool) {
	id, ok := g.ids[name]
	return id, ok
}

// SourceName returns the canonical name of an interface source node.
func SourceName(device, iface string) string { return "src:" + device + ":" + iface }

// FwdName returns the canonical name of a VRF forwarding node.
func FwdName(device, vrf string) string { return "fwd:" + device + ":" + vrf }

// SinkName returns the canonical name of a per-device sink.
func SinkName(kind, device string) string { return "sink:" + kind + ":" + device }

func (g *Graph) index() {
	g.Out = make([][]int, len(g.Nodes))
	g.In = make([][]int, len(g.Nodes))
	for i := range g.Edges {
		e := &g.Edges[i]
		g.Out[e.From] = append(g.Out[e.From], i)
		g.In[e.To] = append(g.In[e.To], i)
	}
}

// compileACL returns the permit BDD for a named ACL; undefined references
// permit everything (matching the concrete engine).
func (g *Graph) compileACL(d *config.Device, name string, cache map[string]bdd.Ref) bdd.Ref {
	if name == "" {
		return bdd.True
	}
	key := d.Hostname + "/" + name
	if r, ok := cache[key]; ok {
		return r
	}
	a, ok := d.ACLs[name]
	var r bdd.Ref
	if !ok {
		r = bdd.True
	} else {
		r = acl.Compile(g.Enc, a).Permit
	}
	cache[key] = r
	return r
}

// zoneID assigns each zone of a device a small integer; 0 = unzoned.
func zoneIDs(d *config.Device) map[string]uint32 {
	names := make([]string, 0, len(d.Zones))
	for n := range d.Zones {
		names = append(names, n)
	}
	sort.Strings(names)
	ids := make(map[string]uint32, len(names))
	for i, n := range names {
		ids[n] = uint32(i + 1)
	}
	return ids
}

// lpmFunc computes a VRF's per-next-hop destination sets (see lpmSets).
// build takes it as a parameter so that tests can run a reference
// computation through the same graph construction.
type lpmFunc func(enc *hdr.Enc, t *fib.FIB, own bdd.Ref) map[fib.NextHop]bdd.Ref

func (g *Graph) build(ctx context.Context, lpm lpmFunc) {
	aclCache := make(map[string]bdd.Ref)
	net := g.dp.Network
	down := g.dp.DownSet()
	for _, name := range net.DeviceNames() {
		if ctx.Err() != nil {
			g.Cancelled = true
			return
		}
		if down[name] {
			// Scenario-downed devices have no simulated state: no nodes,
			// no sources, no sinks — packets cannot enter or traverse them.
			continue
		}
		d := net.Devices[name]
		g.buildDevice(d, aclCache, lpm)
	}
}

// deviceIPs returns the packets addressed to one of the device's active
// interfaces: the packets it accepts.
func deviceIPs(enc *hdr.Enc, d *config.Device) bdd.Ref {
	own := bdd.False
	for _, in := range d.InterfaceNames() {
		if i := d.Interfaces[in]; i.Active {
			own = enc.F.Or(own, ifaceIPs(enc, i))
		}
	}
	return own
}

// ifaceIPs returns the packets addressed to one of the interface's
// addresses.
func ifaceIPs(enc *hdr.Enc, i *config.Interface) bdd.Ref {
	r := bdd.False
	for _, p := range i.Addresses {
		r = enc.F.Or(r, enc.FieldEq(hdr.DstIP, uint32(p.Addr)))
	}
	return r
}

func (g *Graph) buildDevice(d *config.Device, aclCache map[string]bdd.Ref, lpm lpmFunc) {
	enc := g.Enc
	f := enc.F
	name := d.Hostname
	zids := zoneIDs(d)
	zoned := len(zids) > 0

	ownIPs := deviceIPs(enc, d)
	acceptSink := g.node(KindSink, SinkName(SinkAccepted, name), name, SinkAccepted)

	// Per-VRF forwarding nodes + FIB-derived egress structure.
	for _, vrfName := range sortedVRFs(d) {
		vs := g.dp.Nodes[name].VRFs[vrfName]
		if vs == nil || vs.FIB == nil {
			continue
		}
		fwd := g.node(KindFwd, FwdName(name, vrfName), name, vrfName)

		// Accept edge.
		if ownIPs != bdd.False {
			g.edge(fwd, acceptSink, ownIPs)
		}

		// LPM dst sets per forwarding action.
		perNH := lpm(enc, vs.FIB, ownIPs)

		// No-route sink: everything with no FIB match (minus own IPs).
		matched := bdd.False
		for _, s := range perNH {
			matched = f.Or(matched, s)
		}
		noRoute := f.Diff(f.Diff(bdd.True, matched), ownIPs)
		if noRoute != bdd.False {
			g.edge(fwd, g.node(KindSink, SinkName(SinkNoRoute, name), name, SinkNoRoute), noRoute)
		}

		// Group next hops per egress interface.
		nhs := make([]fib.NextHop, 0, len(perNH))
		for nh := range perNH {
			nhs = append(nhs, nh)
		}
		sort.Slice(nhs, func(i, j int) bool {
			if nhs[i].Iface != nhs[j].Iface {
				return nhs[i].Iface < nhs[j].Iface
			}
			return nhs[i].IP < nhs[j].IP
		})
		byIface := make(map[string][]fib.NextHop)
		for _, nh := range nhs {
			if nh.Drop {
				g.edge(fwd, g.node(KindSink, SinkName(SinkNullRouted, name), name, SinkNullRouted), perNH[nh])
				continue
			}
			byIface[nh.Iface] = append(byIface[nh.Iface], nh)
		}

		ifaces := make([]string, 0, len(byIface))
		for i := range byIface {
			ifaces = append(ifaces, i)
		}
		sort.Strings(ifaces)
		for _, ifName := range ifaces {
			g.buildEgress(d, vrfName, fwd, ifName, byIface[ifName], perNH, zids, zoned, aclCache)
		}
	}

	// Ingress chains.
	for _, ifName := range d.InterfaceNames() {
		i := d.Interfaces[ifName]
		if !i.Active || len(i.Addresses) == 0 {
			continue
		}
		src := g.node(KindSource, SourceName(name, ifName), name, ifName)
		preIn := g.node(KindPreIn, "preIn:"+name+":"+ifName, name, ifName)
		g.edge(src, preIn, bdd.True)

		permit := g.compileACL(d, i.InACL, aclCache)
		if deny := g.Enc.F.Not(permit); deny != bdd.False && i.InACL != "" {
			g.edge(preIn, g.node(KindSink, SinkName(SinkDeniedIn, name), name, SinkDeniedIn), deny)
		}

		fwd, ok := g.Lookup(FwdName(name, i.VRFOrDefault()))
		if !ok {
			continue
		}
		e := g.edge(preIn, fwd, permit)
		if d.Stateful && i.InACL != "" {
			e.Raw = bdd.True
		}
		// Destination NAT on ingress.
		if tr := g.natTransform(d, config.DestNAT, ifName, aclCache); tr != nil {
			e.Tr = tr
		}
		// Record the ingress zone (zone 0 = unzoned interface).
		if zoned {
			zid := zids[d.ZoneOf(ifName)]
			e.ZoneSet = &zid
		}
	}
}

func sortedVRFs(d *config.Device) []string {
	out := make([]string, 0, len(d.VRFs))
	for n := range d.VRFs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// buildEgress constructs fwd -> egress -> neighbor/sink chains for one
// interface.
func (g *Graph) buildEgress(d *config.Device, vrfName string, fwd int, ifName string,
	nhs []fib.NextHop, perNH map[fib.NextHop]bdd.Ref, zids map[string]uint32, zoned bool,
	aclCache map[string]bdd.Ref) {

	enc := g.Enc
	f := enc.F
	name := d.Hostname
	i := d.Interfaces[ifName]

	union := bdd.False
	for _, nh := range nhs {
		union = f.Or(union, perNH[nh])
	}

	eg := g.node(KindEgress, "egress:"+name+":"+vrfName+":"+ifName, name, ifName)

	// Zone policy between recorded ingress zone and this egress zone.
	if zoned {
		toZone := d.ZoneOf(ifName)
		zoneOK := g.zonePolicyBDD(d, zids, toZone, aclCache)
		denied := f.Diff(union, zoneOK)
		if denied != bdd.False {
			g.edge(fwd, g.node(KindSink, SinkName(SinkDeniedZone, name), name, SinkDeniedZone), denied)
		}
		ze := g.edge(fwd, eg, f.And(union, zoneOK))
		if d.Stateful {
			ze.Raw = union
		}
	} else {
		g.edge(fwd, eg, union)
	}

	// Source NAT, then egress ACL on post-NAT headers.
	post := eg
	if tr := g.natTransform(d, config.SourceNAT, ifName, aclCache); tr != nil {
		pn := g.node(KindEgress, "postNat:"+name+":"+vrfName+":"+ifName, name, ifName)
		e := g.edge(eg, pn, bdd.True)
		e.Tr = tr
		post = pn
	}
	permit := g.compileACL(d, i.OutACL, aclCache)
	out := post
	if i.OutACL != "" {
		o := g.node(KindEgress, "out:"+name+":"+vrfName+":"+ifName, name, ifName)
		pe := g.edge(post, o, permit)
		if d.Stateful {
			pe.Raw = bdd.True
		}
		g.edge(post, g.node(KindSink, SinkName(SinkDeniedOut, name), name, SinkDeniedOut), f.Not(permit))
		out = o
	}

	// Split to neighbors / hosts / outside by destination.
	// Neighbor-owned IPs on this link, for connected-route delivery.
	neighborEdges := g.dp.Topology.EdgesFrom(name, ifName)
	neighborOwn := make([]bdd.Ref, len(neighborEdges)) // per edge, False if no such interface
	linkOwn := bdd.False                               // IPs owned by neighbors on this link
	for k, ed := range neighborEdges {
		if ri := g.dp.Network.Devices[ed.Node2].Interfaces[ed.Iface2]; ri != nil {
			neighborOwn[k] = ifaceIPs(enc, ri)
			linkOwn = f.Or(linkOwn, neighborOwn[k])
		}
	}

	for _, nh := range nhs {
		set := perNH[nh]
		var target string
		var targetIface string
		if nh.Node != "" {
			target, targetIface = nh.Node, g.peerIface(name, ifName, nh.Node)
		}
		if target == "" && nh.IP == 0 {
			// Connected route: split by who owns the destination.
			for k, ed := range neighborEdges {
				if part := f.And(set, neighborOwn[k]); part != bdd.False {
					g.deliverEdge(out, ed.Node2, ed.Iface2, part)
				}
			}
			// Rest of the connected set: hosts on the subnet.
			rest := f.Diff(set, linkOwn)
			if rest != bdd.False {
				subnetSet := g.ifaceSubnetBDD(i)
				host := f.And(rest, subnetSet)
				if host != bdd.False {
					g.edge(out, g.node(KindSink, SinkName(SinkDeliveredToHost, name), name, SinkDeliveredToHost), host)
				}
				exit := f.Diff(rest, subnetSet)
				if exit != bdd.False {
					g.edge(out, g.node(KindSink, SinkName(SinkExitsNetwork, name), name, SinkExitsNetwork), exit)
				}
			}
			continue
		}
		if target == "" {
			// Next hop IP known but no neighbor: exits the network.
			g.edge(out, g.node(KindSink, SinkName(SinkExitsNetwork, name), name, SinkExitsNetwork), set)
			continue
		}
		g.deliverEdge(out, target, targetIface, set)
	}
}

// deliverEdge connects an egress node to the neighbor's preIn, clearing
// extension (zone) bits as the packet leaves the device.
func (g *Graph) deliverEdge(out int, neighbor, neighborIface string, set bdd.Ref) {
	preIn, ok := g.Lookup("preIn:" + neighbor + ":" + neighborIface)
	if !ok {
		preIn = g.node(KindPreIn, "preIn:"+neighbor+":"+neighborIface, neighbor, neighborIface)
	}
	e := g.edge(out, preIn, set)
	e.ClearZone = true
}

func (g *Graph) peerIface(node, iface, peer string) string {
	for _, ed := range g.dp.Topology.EdgesFrom(node, iface) {
		if ed.Node2 == peer {
			return ed.Iface2
		}
	}
	return ""
}

func (g *Graph) ifaceSubnetBDD(i *config.Interface) bdd.Ref {
	f := g.Enc.F
	r := bdd.False
	for _, p := range i.Addresses {
		if p.Len < 32 {
			r = f.Or(r, g.Enc.Prefix(hdr.DstIP, p))
		}
	}
	return r
}

// zonePolicyBDD returns the packet+zone-bit constraint for traffic leaving
// through toZone: the ingress zone bits must identify a zone with a
// permitting policy (or equal the egress zone).
func (g *Graph) zonePolicyBDD(d *config.Device, zids map[string]uint32, toZone string, aclCache map[string]bdd.Ref) bdd.Ref {
	enc := g.Enc
	f := enc.F
	ok := bdd.False
	// For each possible ingress zone value (including 0 = unzoned):
	check := func(fromZone string, zid uint32) {
		zc := enc.ExtEq(0, ZoneBits, zid)
		if fromZone == "" && toZone == "" {
			ok = f.Or(ok, zc)
			return
		}
		if fromZone == toZone {
			ok = f.Or(ok, zc)
			return
		}
		for _, zp := range d.ZonePolicies {
			if zp.FromZone != fromZone || zp.ToZone != toZone {
				continue
			}
			if zp.ACL == "" {
				ok = f.Or(ok, zc)
				return
			}
			if _, defined := d.ACLs[zp.ACL]; !defined {
				ok = f.Or(ok, zc) // undefined policy ACL permits (matches concrete engine)
				return
			}
			ok = f.Or(ok, f.And(zc, g.compileACL(d, zp.ACL, aclCache)))
			return
		}
		// default deny: contribute nothing
	}
	check("", 0)
	names := make([]string, 0, len(zids))
	for n := range zids {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		check(n, zids[n])
	}
	return ok
}

// natTransform compiles the device's NAT rule list for one direction and
// interface into a single first-match transformation, or nil if no rule
// applies.
func (g *Graph) natTransform(d *config.Device, kind config.NATKind, iface string, aclCache map[string]bdd.Ref) *hdr.Transform {
	enc := g.Enc
	var rules []config.NATRule
	for _, nr := range d.NATRules {
		if nr.Kind != kind {
			continue
		}
		if nr.Iface != "" && nr.Iface != iface {
			continue
		}
		rules = append(rules, nr)
	}
	if len(rules) == 0 {
		return nil
	}
	// Build first-match semantics back to front.
	tr := enc.NewTransform() // identity fallback
	for i := len(rules) - 1; i >= 0; i-- {
		nr := rules[i]
		guard := g.compileACL(d, nr.MatchACL, aclCache)
		if nr.MatchACL != "" {
			if _, defined := d.ACLs[nr.MatchACL]; !defined {
				guard = bdd.False // undefined match ACL matches nothing (concrete engine parity)
			}
		}
		field := hdr.SrcIP
		portField := hdr.SrcPort
		if kind == config.DestNAT {
			field = hdr.DstIP
			portField = hdr.DstPort
		}
		t := enc.NewTransform()
		if nr.PoolLo == nr.PoolHi {
			t.SetField(field, uint32(nr.PoolLo))
		} else {
			t.SetFieldPool(field, uint32(nr.PoolLo), uint32(nr.PoolHi))
		}
		if nr.PortLo != 0 {
			if nr.PortLo == nr.PortHi {
				t.SetField(portField, uint32(nr.PortLo))
			} else {
				t.SetFieldPool(portField, uint32(nr.PortLo), uint32(nr.PortHi))
			}
		}
		tr = enc.Guarded(guard, t, tr)
	}
	return tr
}

// lpmSets returns, for every next hop of the FIB, the destinations whose
// longest-prefix match carries it, minus own; next hops left with no
// destination are omitted. Each set comes from one structural pass over the
// path-compressed trie (lpmSet), and own is subtracted once per next hop.
func lpmSets(enc *hdr.Enc, t *fib.FIB, own bdd.Ref) map[fib.NextHop]bdd.Ref {
	perNH := make(map[fib.NextHop]bdd.Ref)
	for _, nh := range nextHops(t.Root()) {
		if set := enc.F.Diff(lpmSet(enc, t.Root(), nh, false), own); set != bdd.False {
			perNH[nh] = set
		}
	}
	return perNH
}

// nextHops returns the distinct next hops of the entries at or below n,
// in trie preorder.
func nextHops(n *fib.Node) []fib.NextHop {
	var out []fib.NextHop
	seen := make(map[fib.NextHop]bool)
	var walk func(*fib.Node)
	walk = func(n *fib.Node) {
		if n == nil {
			return
		}
		if n.Entry != nil {
			for _, nh := range n.Entry.NextHops {
				if !seen[nh] {
					seen[nh] = true
					out = append(out, nh)
				}
			}
		}
		walk(n.Children[0])
		walk(n.Children[1])
	}
	walk(n)
	return out
}

// lpmSet returns {dst under n's prefix : LPM(dst) carries nh} as a BDD over
// the destination bits from n's prefix length on. inherited reports
// whether the nearest entry above n carries nh.
//
// The trie is itself a decision diagram over those bits: destination bit i
// is a hdr variable that increases with i (MSB first), so the set is built
// bottom-up with one Node per trie bit and no apply. At each node the
// nearest entry decides the leaf (True if it carries nh); a missing child
// takes the leaf, and a compressed edge becomes a chain of nodes along the
// child's address bits whose off-path branches take the leaf.
func lpmSet(enc *hdr.Enc, n *fib.Node, nh fib.NextHop, inherited bool) bdd.Ref {
	if n.Entry != nil {
		inherited = carries(n.Entry, nh)
	}
	leaf := bdd.False
	if inherited {
		leaf = bdd.True
	}
	if n.Prefix.Len == 32 {
		return leaf
	}
	f := enc.F
	var sub [2]bdd.Ref
	for b, c := range n.Children {
		sub[b] = leaf
		if c == nil {
			continue
		}
		r := lpmSet(enc, c, nh, inherited)
		for i := int(c.Prefix.Len) - 1; i > int(n.Prefix.Len) && r != leaf; i-- {
			if v := enc.L.Var(hdr.DstIP, i); c.Prefix.Addr.Bit(i) {
				r = f.Node(v, leaf, r)
			} else {
				r = f.Node(v, r, leaf)
			}
		}
		sub[b] = r
	}
	return f.Node(enc.L.Var(hdr.DstIP, int(n.Prefix.Len)), sub[0], sub[1])
}

func carries(e *fib.Entry, nh fib.NextHop) bool {
	for _, x := range e.NextHops {
		if x == nh {
			return true
		}
	}
	return false
}

// Device returns the configuration of a device by hostname (nil if
// unknown).
func (g *Graph) Device(name string) *config.Device { return g.dp.Network.Devices[name] }

// String renders a summary for debugging and the Figure 2 example.
func (g *Graph) String() string {
	return fmt.Sprintf("dataflow graph: %d nodes, %d edges", len(g.Nodes), len(g.Edges))
}
