// Package fib builds and queries forwarding tables. The FIB is the bridge
// between the control plane (package dataplane, which computes main-RIB
// routes) and the data plane analyses: the traceroute engine looks up
// concrete packets here, and the forwarding-graph builder reads the trie
// as a decision diagram over the destination bits, building each next
// hop's longest-prefix-match packet set node by node as a BDD edge label
// (paper §4.2.1: "edge constraints ... encode the semantics of
// longest-prefix matching").
package fib

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/ip4"
	"repro/internal/routing"
)

// NextHop is one forwarding action for a FIB entry.
type NextHop struct {
	Iface string   // outgoing interface
	IP    ip4.Addr // ARP/next-hop IP; 0 means "the destination itself"
	Node  string   // resolved neighbor device ("" if exiting the network)
	Drop  bool     // null route: discard
}

func (n NextHop) String() string {
	if n.Drop {
		return "drop"
	}
	s := n.Iface
	if n.IP != 0 {
		s += fmt.Sprintf(" via %s", n.IP)
	}
	if n.Node != "" {
		s += fmt.Sprintf(" (%s)", n.Node)
	}
	return s
}

// Entry is one FIB row: a prefix and its (possibly ECMP) next hops.
type Entry struct {
	Prefix   ip4.Prefix
	NextHops []NextHop
}

// Node is a trie node, exported so the forwarding-graph builder can walk
// the structure directly.
type Node struct {
	Prefix   ip4.Prefix
	Entry    *Entry // nil for internal nodes
	Children [2]*Node
}

// FIB is a path-compressed binary trie of forwarding entries.
type FIB struct {
	root *Node
	n    int
}

// New returns an empty FIB whose root covers 0.0.0.0/0.
func New() *FIB {
	return &FIB{root: &Node{Prefix: ip4.Prefix{}}}
}

// Root returns the trie root (prefix 0.0.0.0/0, possibly without entry).
func (f *FIB) Root() *Node { return f.root }

// Len returns the number of entries.
func (f *FIB) Len() int { return f.n }

// Add inserts or replaces the entry for e.Prefix.
func (f *FIB) Add(e Entry) {
	e.Prefix = e.Prefix.Canonical()
	// slices.SortFunc runs the same pdqsort as sort.Slice without its
	// reflective swapper's allocation; Add runs once per FIB entry.
	slices.SortFunc(e.NextHops, func(a, b NextHop) int {
		if c := strings.Compare(a.Iface, b.Iface); c != 0 {
			return c
		}
		return cmp.Compare(a.IP, b.IP)
	})
	n := f.insert(f.root, e.Prefix)
	if n.Entry == nil {
		f.n++
	}
	n.Entry = &Entry{Prefix: e.Prefix, NextHops: e.NextHops}
}

// insert returns the node for prefix p, creating/splitting as needed.
// cur's prefix is guaranteed to contain p.
func (f *FIB) insert(cur *Node, p ip4.Prefix) *Node {
	for {
		if cur.Prefix.Len == p.Len {
			return cur
		}
		b := 0
		if p.Addr.Bit(int(cur.Prefix.Len)) {
			b = 1
		}
		child := cur.Children[b]
		if child == nil {
			n := &Node{Prefix: p}
			cur.Children[b] = n
			return n
		}
		// Find the length of the common prefix of p and child.Prefix.
		common := commonLen(p, child.Prefix)
		if common >= child.Prefix.Len {
			// child's prefix contains p; descend.
			cur = child
			continue
		}
		// Split: insert an internal node at the divergence point.
		mid := &Node{Prefix: ip4.Prefix{Addr: p.Addr, Len: common}.Canonical()}
		cb := 0
		if child.Prefix.Addr.Bit(int(common)) {
			cb = 1
		}
		mid.Children[cb] = child
		cur.Children[b] = mid
		if common == p.Len {
			return mid
		}
		pb := 0
		if p.Addr.Bit(int(common)) {
			pb = 1
		}
		n := &Node{Prefix: p}
		mid.Children[pb] = n
		return n
	}
}

// commonLen returns the length of the longest common prefix of a and b,
// capped at min(a.Len, b.Len).
func commonLen(a, b ip4.Prefix) uint8 {
	max := a.Len
	if b.Len < max {
		max = b.Len
	}
	x := uint32(a.Addr) ^ uint32(b.Addr)
	var i uint8
	for i = 0; i < max; i++ {
		if x&(1<<(31-i)) != 0 {
			break
		}
	}
	return i
}

// Lookup returns the longest-prefix-match entry for addr, or nil.
func (f *FIB) Lookup(addr ip4.Addr) *Entry {
	var best *Entry
	cur := f.root
	for cur != nil {
		if !cur.Prefix.Contains(addr) {
			break
		}
		if cur.Entry != nil {
			best = cur.Entry
		}
		if cur.Prefix.Len == 32 {
			break
		}
		b := 0
		if addr.Bit(int(cur.Prefix.Len)) {
			b = 1
		}
		cur = cur.Children[b]
	}
	return best
}

// Entries returns all entries in canonical prefix order.
func (f *FIB) Entries() []Entry {
	return sortEntries(collect(f.root, nil))
}

// Overlapping returns the entries whose prefixes overlap q — those that
// contain it and those inside it — in canonical prefix order.
func (f *FIB) Overlapping(q ip4.Prefix) []Entry {
	q = q.Canonical()
	var out []Entry
	for cur := f.root; cur != nil; {
		if q.ContainsPrefix(cur.Prefix) {
			return sortEntries(collect(cur, out))
		}
		if !cur.Prefix.ContainsPrefix(q) {
			break
		}
		if cur.Entry != nil {
			out = append(out, *cur.Entry)
		}
		b := 0
		if q.Addr.Bit(int(cur.Prefix.Len)) {
			b = 1
		}
		cur = cur.Children[b]
	}
	return out
}

// collect appends the entries of the subtree under n to out.
func collect(n *Node, out []Entry) []Entry {
	if n == nil {
		return out
	}
	if n.Entry != nil {
		out = append(out, *n.Entry)
	}
	return collect(n.Children[1], collect(n.Children[0], out))
}

func sortEntries(es []Entry) []Entry {
	sort.Slice(es, func(i, j int) bool { return es[i].Prefix.Compare(es[j].Prefix) < 0 })
	return es
}

// Resolver supplies what BuildFromRIB needs to turn RIB routes into
// concrete forwarding actions.
type Resolver struct {
	// IfaceForConnected returns the interface whose subnet contains addr,
	// for resolving recursive next hops to a connected interface.
	IfaceForConnected func(addr ip4.Addr) (iface string, ok bool)
	// NodeForNextHop maps (iface, next-hop IP) to the neighbor device that
	// owns the IP ("" if none, e.g. the network edge).
	NodeForNextHop func(iface string, nh ip4.Addr) string
}

// BuildFromRIB converts a main RIB into a FIB, resolving recursive next
// hops (e.g. a BGP route via a loopback reached through an IGP route) down
// to connected interfaces. Unresolvable routes are skipped and reported.
func BuildFromRIB(rib *routing.RIB, res Resolver) (*FIB, []routing.Route) {
	f := New()
	var unresolved []routing.Route
	for _, p := range rib.Prefixes() {
		best := rib.Best(p)
		var nhs []NextHop
		for _, rt := range best {
			resolved, ok := resolveRoute(rib, res, rt, 0)
			if !ok {
				unresolved = append(unresolved, rt)
				continue
			}
			nhs = append(nhs, resolved...)
		}
		if len(nhs) > 0 {
			nhs = dedupNextHops(nhs)
			f.Add(Entry{Prefix: p, NextHops: nhs})
		}
	}
	return f, unresolved
}

const maxResolveDepth = 16

func resolveRoute(rib *routing.RIB, res Resolver, rt routing.Route, depth int) ([]NextHop, bool) {
	if depth > maxResolveDepth {
		return nil, false
	}
	if rt.Drop {
		return []NextHop{{Drop: true}}, true
	}
	if rt.NextHopIface != "" {
		nh := NextHop{Iface: rt.NextHopIface, IP: rt.NextHop}
		// Connected routes (no next-hop IP) keep Node empty: the receiving
		// device depends on the packet's destination, resolved per packet
		// by the traceroute engine and per destination set by the
		// forwarding graph.
		if res.NodeForNextHop != nil && nh.IP != 0 {
			nh.Node = res.NodeForNextHop(nh.Iface, nh.IP)
		}
		return []NextHop{nh}, true
	}
	if rt.NextHop == 0 {
		return nil, false
	}
	// Direct resolution: next hop on a connected subnet.
	if res.IfaceForConnected != nil {
		if iface, ok := res.IfaceForConnected(rt.NextHop); ok {
			nh := NextHop{Iface: iface, IP: rt.NextHop}
			if res.NodeForNextHop != nil {
				nh.Node = res.NodeForNextHop(iface, rt.NextHop)
			}
			return []NextHop{nh}, true
		}
	}
	// Recursive resolution through the RIB (skipping the route itself to
	// avoid self-resolution of default routes).
	var out []NextHop
	for _, via := range rib.LongestMatch(rt.NextHop) {
		if via.Prefix == rt.Prefix && via.Protocol == rt.Protocol {
			continue
		}
		sub, ok := resolveRoute(rib, res, via, depth+1)
		if !ok {
			continue
		}
		for i := range sub {
			// Keep the original BGP next hop as the ARP target only when
			// it is on the connected subnet; otherwise ARP for the IGP
			// next hop (standard recursive resolution).
			out = append(out, sub[i])
		}
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

func dedupNextHops(nhs []NextHop) []NextHop {
	sort.Slice(nhs, func(i, j int) bool {
		a, b := nhs[i], nhs[j]
		if a.Iface != b.Iface {
			return a.Iface < b.Iface
		}
		if a.IP != b.IP {
			return a.IP < b.IP
		}
		return !a.Drop && b.Drop
	})
	out := nhs[:0]
	for i, nh := range nhs {
		if i == 0 || nh != nhs[i-1] {
			out = append(out, nh)
		}
	}
	return out
}
