// Package topo infers the layer-3 topology from interface addressing and
// provides the protocol-graph coloring that serializes route exchange
// between adjacent nodes (paper §4.1.2: "for each routing protocol, it
// computes the adjacencies, colors the graph, and allows only nodes of the
// same color to participate in the message exchange at the same time").
package topo

import (
	"maps"
	"sort"

	"repro/internal/config"
	"repro/internal/ip4"
)

// Edge is one directed L3 adjacency: a packet leaving Node1 via Iface1
// arrives at Node2's Iface2. Edges come in symmetric pairs.
type Edge struct {
	Node1, Iface1 string
	Node2, Iface2 string
}

// Reverse returns the opposite direction of the edge.
func (e Edge) Reverse() Edge {
	return Edge{Node1: e.Node2, Iface1: e.Iface2, Node2: e.Node1, Iface2: e.Iface1}
}

// Link is one undirected L3 adjacency in canonical orientation: the
// lexicographically smaller (node, iface) endpoint is always first, so the
// two directed edges of a pair map to the same Link value. Links are the
// unit of failure-scenario overlays ("this link is down").
type Link struct {
	Node1, Iface1 string
	Node2, Iface2 string
}

// Link returns the edge's canonical undirected link.
func (e Edge) Link() Link {
	if e.Node2 < e.Node1 || (e.Node2 == e.Node1 && e.Iface2 < e.Iface1) {
		return Link{Node1: e.Node2, Iface1: e.Iface2, Node2: e.Node1, Iface2: e.Iface1}
	}
	return Link{Node1: e.Node1, Iface1: e.Iface1, Node2: e.Node2, Iface2: e.Iface2}
}

// String renders the canonical "node1:iface1<->node2:iface2" form used in
// scenario identifiers and cache keys.
func (l Link) String() string {
	return l.Node1 + ":" + l.Iface1 + "<->" + l.Node2 + ":" + l.Iface2
}

// Canonical reorders the endpoints into the canonical orientation (the
// lexicographically smaller endpoint first), so links built by hand in
// either orientation compare equal.
func (l Link) Canonical() Link {
	if l.Node2 < l.Node1 || (l.Node2 == l.Node1 && l.Iface2 < l.Iface1) {
		return Link{Node1: l.Node2, Iface1: l.Iface2, Node2: l.Node1, Iface2: l.Iface1}
	}
	return l
}

// LessLink is the canonical ordering over links.
func LessLink(a, b Link) bool {
	if a.Node1 != b.Node1 {
		return a.Node1 < b.Node1
	}
	if a.Iface1 != b.Iface1 {
		return a.Iface1 < b.Iface1
	}
	if a.Node2 != b.Node2 {
		return a.Node2 < b.Node2
	}
	return a.Iface2 < b.Iface2
}

// Topology is the set of inferred L3 adjacencies.
type Topology struct {
	Edges  []Edge
	byNode map[string][]Edge
	byIfx  map[endpoint][]Edge
}

type endpoint struct{ node, iface string }

// Infer derives the topology: two active interfaces are adjacent when
// their configured prefixes lie in the same subnet (identical network
// address and length) on different devices. Multi-access subnets produce
// pairwise adjacencies.
func Infer(net *config.Network) *Topology {
	type member struct {
		node, iface string
		addr        ip4.Addr
	}
	bySubnet := make(map[ip4.Prefix][]member)
	for _, name := range net.DeviceNames() {
		d := net.Devices[name]
		for _, in := range d.InterfaceNames() {
			i := d.Interfaces[in]
			if !i.Active {
				continue
			}
			for _, p := range i.Addresses {
				if p.Len == 32 {
					continue // loopbacks/host addresses form no subnet
				}
				bySubnet[ip4.Prefix{Addr: p.First(), Len: p.Len}] = append(
					bySubnet[ip4.Prefix{Addr: p.First(), Len: p.Len}],
					member{node: name, iface: in, addr: p.Addr})
			}
		}
	}
	t := &Topology{byNode: make(map[string][]Edge), byIfx: make(map[endpoint][]Edge)}
	for _, members := range bySubnet {
		for a := range members {
			for b := range members {
				if a == b || members[a].node == members[b].node {
					continue
				}
				e := Edge{
					Node1: members[a].node, Iface1: members[a].iface,
					Node2: members[b].node, Iface2: members[b].iface,
				}
				t.Edges = append(t.Edges, e)
			}
		}
	}
	sort.Slice(t.Edges, func(i, j int) bool { return lessEdge(t.Edges[i], t.Edges[j]) })
	// Deduplicate (an interface pair can share multiple subnets).
	dedup := t.Edges[:0]
	for i, e := range t.Edges {
		if i == 0 || e != t.Edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	t.Edges = dedup
	for _, e := range t.Edges {
		t.byNode[e.Node1] = append(t.byNode[e.Node1], e)
		ep := endpoint{e.Node1, e.Iface1}
		t.byIfx[ep] = append(t.byIfx[ep], e)
	}
	return t
}

func lessEdge(a, b Edge) bool {
	if a.Node1 != b.Node1 {
		return a.Node1 < b.Node1
	}
	if a.Iface1 != b.Iface1 {
		return a.Iface1 < b.Iface1
	}
	if a.Node2 != b.Node2 {
		return a.Node2 < b.Node2
	}
	return a.Iface2 < b.Iface2
}

// Links returns the topology's undirected links, sorted and deduplicated.
func (t *Topology) Links() []Link {
	out := make([]Link, 0, len(t.Edges)/2)
	for _, e := range t.Edges {
		out = append(out, e.Link())
	}
	sort.Slice(out, func(i, j int) bool { return LessLink(out[i], out[j]) })
	dedup := out[:0]
	for i, l := range out {
		if i == 0 || l != out[i-1] {
			dedup = append(dedup, l)
		}
	}
	return dedup
}

// Mask returns a topology without the given links and without any edge
// touching one of the given nodes — the edge-level projection of a failure
// scenario. The receiver is never modified: the new indexes share its
// edge lists for every node the mask leaves alone and rebuild only those
// of nodes that lost an edge. With nothing to mask the receiver is
// returned unchanged.
func (t *Topology) Mask(links []Link, nodes []string) *Topology {
	if len(links) == 0 && len(nodes) == 0 {
		return t
	}
	dropLink := make(map[Link]bool, len(links))
	for _, l := range links {
		dropLink[l.Canonical()] = true
	}
	dropNode := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		dropNode[n] = true
	}
	nt := &Topology{Edges: make([]Edge, 0, len(t.Edges)), byNode: maps.Clone(t.byNode), byIfx: maps.Clone(t.byIfx)}
	lost := make(map[string]bool)
	for _, e := range t.Edges {
		if dropNode[e.Node1] || dropNode[e.Node2] || dropLink[e.Link()] {
			lost[e.Node1] = true
			continue
		}
		nt.Edges = append(nt.Edges, e)
	}
	for _, e := range t.Edges {
		if lost[e.Node1] {
			delete(nt.byNode, e.Node1)
			delete(nt.byIfx, endpoint{e.Node1, e.Iface1})
		}
	}
	for _, e := range nt.Edges {
		if lost[e.Node1] {
			nt.byNode[e.Node1] = append(nt.byNode[e.Node1], e)
			ep := endpoint{e.Node1, e.Iface1}
			nt.byIfx[ep] = append(nt.byIfx[ep], e)
		}
	}
	return nt
}

// Neighbors returns the edges out of node, in canonical order.
func (t *Topology) Neighbors(node string) []Edge { return t.byNode[node] }

// EdgeFrom returns the edge out of (node, iface), if the interface has
// exactly one discovered neighbor. Multi-access interfaces with several
// neighbors return false; the forwarding graph resolves those by next-hop
// IP instead.
func (t *Topology) EdgeFrom(node, iface string) (Edge, bool) {
	es := t.byIfx[endpoint{node, iface}]
	if len(es) != 1 {
		return Edge{}, false
	}
	return es[0], true
}

// EdgesFrom returns all edges out of (node, iface), in canonical order.
// The returned slice is shared with the topology's index and must not be
// modified: this lookup sits on the simulator's next-hop resolution hot
// path, where a per-call copy showed up as pure allocation churn.
func (t *Topology) EdgesFrom(node, iface string) []Edge {
	return t.byIfx[endpoint{node, iface}]
}

// Coloring assigns each node a color such that no two adjacent nodes share
// one. Nodes of the same color may safely exchange routes in the same step
// without racing on partially converged state.
type Coloring struct {
	Color     map[string]int
	NumColors int
	// Order lists color classes: Order[c] = sorted nodes with color c.
	Order [][]string
}

// ColorGraph greedily colors the undirected graph (Welsh–Powell order:
// highest degree first, name-tiebroken for determinism).
func ColorGraph(nodes []string, edges [][2]string) Coloring {
	adj := make(map[string]map[string]bool, len(nodes))
	for _, n := range nodes {
		adj[n] = make(map[string]bool)
	}
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		if adj[e[0]] == nil || adj[e[1]] == nil {
			continue // edge mentions unknown node
		}
		adj[e[0]][e[1]] = true
		adj[e[1]][e[0]] = true
	}
	order := append([]string(nil), nodes...)
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	c := Coloring{Color: make(map[string]int, len(nodes))}
	for _, n := range order {
		used := make(map[int]bool)
		for nb := range adj[n] {
			if col, ok := c.Color[nb]; ok {
				used[col] = true
			}
		}
		col := 0
		for used[col] {
			col++
		}
		c.Color[n] = col
		if col+1 > c.NumColors {
			c.NumColors = col + 1
		}
	}
	c.Order = make([][]string, c.NumColors)
	for _, n := range nodes {
		c.Order[c.Color[n]] = append(c.Order[c.Color[n]], n)
	}
	for _, class := range c.Order {
		sort.Strings(class)
	}
	return c
}

// Valid reports whether the coloring is proper for the given edges.
func (c Coloring) Valid(edges [][2]string) bool {
	for _, e := range edges {
		if e[0] != e[1] && c.Color[e[0]] == c.Color[e[1]] {
			return false
		}
	}
	return true
}
