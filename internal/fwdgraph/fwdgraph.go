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
	"slices"
	"sort"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fib"
	"repro/internal/hdr"
	"repro/internal/ip4"
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

	// Reused counts the device fragments Update took from its base graph
	// instead of building them; 0 for a cold build.
	Reused int

	ids map[string]int

	dp *dataplane.Result

	// frags holds each built device's fragment by hostname, for a later
	// Update that takes this graph as its base.
	frags map[string]fragment
	// cur is the fragment being built. named[id] is the seq of the last
	// fragment that named node id, so each fragment records a node once.
	cur   *fragment
	seq   int
	named []int
}

// fragment is one device's share of a graph: the nodes its construction
// named (created or looked up), in first-use order, and its edges, which
// construction appends contiguously as Edges[lo:hi].
type fragment struct {
	nodes  []int
	lo, hi int
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
	return NewWithEnc(dp, hdr.NewEnc(ZoneBits+WaypointBits))
}

// NewWithEnc builds the graph reusing an existing encoder (for tests that
// need to construct query BDDs with the same factory).
func NewWithEnc(dp *dataplane.Result, enc *hdr.Enc) *Graph {
	return Update(context.Background(), nil, dp, enc)
}

// Update builds the graph of dp on enc, taking from base every device
// fragment whose inputs are unchanged; a nil base, one built on another
// encoder, or a cancelled one gives a cold build. A device's fragment
// reads its parsed model (by pointer), its VRFs' FIBs (by NodeState
// pointer, else by entries), its adjacencies under the failure mask and
// the addresses of the interfaces at their far ends; a down device has
// none. A reused fragment names its nodes in the order its build did and
// then appends its edges, so node ids, edge order and every label (the
// same function on the same hash-consed factory, hence the same Ref) are
// those of a cold build.
//
// Construction checks the context between devices and stops early when
// it expires, returning a partial graph with Cancelled set. A partial
// graph is structurally valid (indexes are built) but covers only a
// prefix of the devices, so queries against it see a degraded network.
func Update(ctx context.Context, base *Graph, dp *dataplane.Result, enc *hdr.Enc) *Graph {
	if base != nil && (base.Enc != enc || base.Cancelled) {
		base = nil
	}
	g := &Graph{Enc: enc, dp: dp}
	g.build(ctx, lpmSets, base)
	g.index()
	return g
}

// HasTransforms reports whether any edge of g rewrites packet headers
// (NAT). A backward set on such a graph is a pre-image, not the
// post-transform set a forward pass reports at a sink, and a packet's
// trajectory can leave the header it entered with.
func (g *Graph) HasTransforms() bool {
	for i := range g.Edges {
		if g.Edges[i].Tr != nil {
			return true
		}
	}
	return false
}

// Delta returns a header set H, free of extension variables, outside
// which a and b forward every packet alike: for a header outside H, every
// edge either graph has between two named nodes with given zone and
// waypoint effects admits it, for every extension-bit value, in both
// graphs or in neither, so its trajectories, and the sink sets of every
// source read over it, are the same in both. Raw, the session fast path
// of bidirectional analysis, is not compared.
//
// It walks each device's fragment in both graphs edge by edge. A device
// whose edges match pair by pair (label, endpoint names, effects)
// contributes nothing; the edges of every other device, and of a device
// only one graph has, are OR-ed per key (from name, to name, effects) on
// each side, and H is the union of each key's two sides XOR-ed, with the
// extension bits quantified out. An edge leaves its own device's nodes,
// so keys of different devices never meet. H is True when the graphs are
// on different encoders, either was cancelled, or either rewrites headers.
func Delta(a, b *Graph) bdd.Ref {
	if a.Enc != b.Enc || a.Cancelled || b.Cancelled || a.HasTransforms() || b.HasTransforms() {
		return bdd.True
	}
	names := make([]string, 0, len(a.frags))
	for name := range a.frags {
		names = append(names, name)
	}
	for name := range b.frags {
		if _, ok := a.frags[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	// Each key's label unions, one per side; keys in first-use order, so
	// that the unions below do not depend on map order.
	var keys []edgeKey
	sets := make(map[edgeKey][2]bdd.Ref)
	f := a.Enc.F
	add := func(g *Graph, fr fragment, side int) {
		for _, e := range g.Edges[fr.lo:fr.hi] {
			k := edgeKey{from: g.Nodes[e.From].Name, to: g.Nodes[e.To].Name, zone: -1, clear: e.ClearZone}
			if e.ZoneSet != nil {
				k.zone = int64(*e.ZoneSet)
			}
			if len(e.SetBits) > 0 {
				k.bits = fmt.Sprint(e.SetBits)
			}
			sides, ok := sets[k]
			if !ok {
				keys = append(keys, k)
			}
			sides[side] = f.Or(sides[side], e.Label)
			sets[k] = sides
		}
	}
	for _, name := range names {
		fa, inA := a.frags[name]
		fb, inB := b.frags[name]
		if inA && inB && sameRun(a, fa, b, fb) {
			continue
		}
		if inA {
			add(a, fa, 0)
		}
		if inB {
			add(b, fb, 1)
		}
	}
	h := bdd.False
	for _, k := range keys {
		h = f.Or(h, f.Xor(sets[k][0], sets[k][1]))
	}
	return a.Enc.ClearExt(h)
}

// edgeKey identifies, across two graphs, the edges Delta unions: their
// endpoints by name and their effects on the extension bits.
type edgeKey struct {
	from, to string
	zone     int64 // the ZoneSet value, -1 for none
	clear    bool
	bits     string // SetBits
}

// sameRun reports whether fragment fa of a and fb of b hold the same
// edges in the same order: equal labels, endpoint names and effects.
func sameRun(a *Graph, fa fragment, b *Graph, fb fragment) bool {
	if fa.hi-fa.lo != fb.hi-fb.lo {
		return false
	}
	for i := 0; i < fa.hi-fa.lo; i++ {
		ea, eb := &a.Edges[fa.lo+i], &b.Edges[fb.lo+i]
		if ea.Label != eb.Label || ea.ClearZone != eb.ClearZone ||
			(ea.ZoneSet == nil) != (eb.ZoneSet == nil) || (ea.ZoneSet != nil && *ea.ZoneSet != *eb.ZoneSet) ||
			!slices.Equal(ea.SetBits, eb.SetBits) ||
			a.Nodes[ea.From].Name != b.Nodes[eb.From].Name || a.Nodes[ea.To].Name != b.Nodes[eb.To].Name {
			return false
		}
	}
	return true
}

// node returns the id of the node called name, creating it if needed, and
// records it in the fragment being built.
func (g *Graph) node(kind Kind, name, device, extra string) int {
	id, ok := g.ids[name]
	if !ok {
		id = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name, Node_: device, Extra: extra})
		g.ids[name] = id
		g.named = append(g.named, 0)
	}
	if g.named[id] != g.seq {
		g.named[id] = g.seq
		g.cur.nodes = append(g.cur.nodes, id)
	}
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

func (g *Graph) build(ctx context.Context, lpm lpmFunc, base *Graph) {
	aclCache := make(map[string]bdd.Ref)
	net := g.dp.Network
	down := g.dp.DownSet()
	var remap []int // base node id -> id in g, for replayed fragments
	if base != nil {
		g.Nodes = make([]Node, 0, len(base.Nodes))
		g.Edges = make([]Edge, 0, len(base.Edges))
		g.ids = make(map[string]int, len(base.Nodes))
		remap = make([]int, len(base.Nodes))
	} else {
		g.ids = make(map[string]int)
	}
	g.frags = make(map[string]fragment, len(net.Devices))
	defer func() { g.cur, g.named = nil, nil }()
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
		g.seq++
		g.cur = &fragment{lo: len(g.Edges)}
		if bf, ok := base.fragment(name); ok && sameInputs(base.dp, g.dp, name) {
			g.replay(base, bf, remap)
			g.Reused++
		} else {
			g.buildDevice(net.Devices[name], aclCache, lpm)
		}
		g.cur.hi = len(g.Edges)
		g.frags[name] = *g.cur
	}
}

// fragment returns the fragment g built for device name; a nil g has
// none.
func (g *Graph) fragment(name string) (fragment, bool) {
	if g == nil {
		return fragment{}, false
	}
	f, ok := g.frags[name]
	return f, ok
}

// replay appends base's fragment f to g. Naming f's nodes in their
// first-use order creates exactly the nodes a build of the device would
// create here, in the same order; f's edges follow, moved onto g's ids.
func (g *Graph) replay(base *Graph, f fragment, remap []int) {
	for _, id := range f.nodes {
		n := &base.Nodes[id]
		remap[id] = g.node(n.Kind, n.Name, n.Node_, n.Extra)
	}
	for _, e := range base.Edges[f.lo:f.hi] {
		e.From, e.To = remap[e.From], remap[e.To]
		g.Edges = append(g.Edges, e)
	}
}

// sameInputs reports whether device name's fragment reads the same inputs
// in dp as in base: the same parsed model, FIBs with the same entries,
// the same adjacencies under the failure mask, and the same addresses on
// the interfaces at their far ends (they feed linkOwn, peerIface and
// deliverEdge).
func sameInputs(base, dp *dataplane.Result, name string) bool {
	d := dp.Network.Devices[name]
	if base.Network.Devices[name] != d {
		return false
	}
	if bns, ns := base.Nodes[name], dp.Nodes[name]; bns != ns {
		for vrf := range d.VRFs {
			if !sameFIB(bns.VRFs[vrf], ns.VRFs[vrf]) {
				return false
			}
		}
	}
	edges := dp.Topology.Neighbors(name)
	if !slices.Equal(base.Topology.Neighbors(name), edges) {
		return false
	}
	for _, ed := range edges {
		if !slices.Equal(ifaceAddrs(base.Network, ed.Node2, ed.Iface2), ifaceAddrs(dp.Network, ed.Node2, ed.Iface2)) {
			return false
		}
	}
	return true
}

// sameFIB reports whether two VRF states hold FIBs with the same entries
// (a missing state and a missing FIB both mean none).
func sameFIB(a, b *dataplane.VRFState) bool {
	var fa, fb *fib.FIB
	if a != nil {
		fa = a.FIB
	}
	if b != nil {
		fb = b.FIB
	}
	if fa == fb {
		return true
	}
	if fa == nil || fb == nil || fa.Len() != fb.Len() {
		return false
	}
	return slices.EqualFunc(fa.Entries(), fb.Entries(), func(x, y fib.Entry) bool {
		return x.Prefix == y.Prefix && slices.Equal(x.NextHops, y.NextHops)
	})
}

// ifaceAddrs returns the addresses of a device's interface (none if the
// interface is missing).
func ifaceAddrs(net *config.Network, device, iface string) []ip4.Prefix {
	if i := net.Devices[device].Interfaces[iface]; i != nil {
		return i.Addresses
	}
	return nil
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

		// LPM dst sets per forwarding action, in a fixed next-hop order:
		// every union below runs in it, so rebuilding an unchanged data
		// plane on the same factory makes no new intermediate nodes.
		perNH := lpm(enc, vs.FIB, ownIPs)
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

		// No-route sink: everything with no FIB match (minus own IPs).
		matched := bdd.False
		for _, nh := range nhs {
			matched = f.Or(matched, perNH[nh])
		}
		noRoute := f.Diff(f.Diff(bdd.True, matched), ownIPs)
		if noRoute != bdd.False {
			g.edge(fwd, g.node(KindSink, SinkName(SinkNoRoute, name), name, SinkNoRoute), noRoute)
		}

		// Group next hops per egress interface.
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
	preIn := g.node(KindPreIn, "preIn:"+neighbor+":"+neighborIface, neighbor, neighborIface)
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
