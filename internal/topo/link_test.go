package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestLinkCanonicalAndString(t *testing.T) {
	e := Edge{Node1: "b", Iface1: "e1", Node2: "a", Iface2: "e0"}
	l := e.Link()
	if l.Node1 != "a" || l.Iface1 != "e0" || l.Node2 != "b" || l.Iface2 != "e1" {
		t.Errorf("Edge.Link not canonical: %v", l)
	}
	if l != e.Reverse().Link() {
		t.Error("both edge directions must map to one link")
	}
	raw := Link{Node1: "b", Iface1: "e1", Node2: "a", Iface2: "e0"}
	if raw.Canonical() != l {
		t.Errorf("Canonical() = %v, want %v", raw.Canonical(), l)
	}
	if got := l.String(); got != "a:e0<->b:e1" {
		t.Errorf("String() = %q", got)
	}
}

func TestLinksEnumeration(t *testing.T) {
	net := netWith(t, [][4]string{{"a", "e0", "b", "e0"}, {"b", "e1", "c", "e0"}})
	links := Infer(net).Links()
	if len(links) != 2 {
		t.Fatalf("links = %v, want 2", links)
	}
	// Sorted canonical order, one entry per adjacency (not per edge).
	if links[0].String() != "a:e0<->b:e0" || links[1].String() != "b:e1<->c:e0" {
		t.Errorf("links = %v", links)
	}
}

func TestMask(t *testing.T) {
	net := netWith(t, [][4]string{{"a", "e0", "b", "e0"}, {"b", "e1", "c", "e0"}, {"c", "e1", "d", "e0"}})
	full := Infer(net)

	if got := full.Mask(nil, nil); got != full {
		t.Error("empty mask should return the receiver")
	}

	// Masking a link removes both directions and nothing else; the
	// non-canonical orientation must match too.
	m := full.Mask([]Link{{Node1: "b", Iface1: "e0", Node2: "a", Iface2: "e0"}}, nil)
	if len(m.Edges) != len(full.Edges)-2 {
		t.Fatalf("masked edges = %d, want %d", len(m.Edges), len(full.Edges)-2)
	}
	if _, ok := m.EdgeFrom("a", "e0"); ok {
		t.Error("a:e0 edge survived the mask")
	}
	if _, ok := m.EdgeFrom("b", "e0"); ok {
		t.Error("reverse edge survived the mask")
	}
	if _, ok := m.EdgeFrom("b", "e1"); !ok {
		t.Error("unrelated edge was dropped")
	}
	if len(full.Edges) != 6 {
		t.Errorf("receiver was modified: %d edges", len(full.Edges))
	}

	// Masking a node removes every incident edge and its index entries.
	n := full.Mask(nil, []string{"b"})
	if len(n.Edges) != 2 {
		t.Fatalf("node mask left %d edges, want 2 (c<->d)", len(n.Edges))
	}
	if got := n.Neighbors("b"); len(got) != 0 {
		t.Errorf("downed node still has neighbors: %v", got)
	}
	if got := n.Neighbors("a"); len(got) != 0 {
		t.Errorf("neighbor of downed node kept the dead edge: %v", got)
	}
	if _, ok := n.EdgeFrom("c", "e1"); !ok {
		t.Error("c<->d must survive a b-down mask")
	}
}

// TestMaskMatchesReindex checks Mask against re-indexing the kept edges
// from scratch, on random meshes under random link and node masks: the
// same edges in the same order and the same per-node and per-interface
// indexes, with no entry for a node or interface left without edges.
func TestMaskMatchesReindex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 50; draw++ {
		var spec [][4]string
		for i := 0; i < 4+rng.Intn(12); i++ {
			a, b := rng.Intn(8), rng.Intn(8)
			if a == b {
				continue
			}
			spec = append(spec, [4]string{
				string(rune('a' + a)), fmt.Sprintf("e%d", i),
				string(rune('a' + b)), fmt.Sprintf("e%d", i),
			})
		}
		full := Infer(netWith(t, spec))
		all := full.Links()
		var links []Link
		var nodes []string
		for k := rng.Intn(3); k > 0 && len(all) > 0; k-- {
			links = append(links, all[rng.Intn(len(all))])
		}
		for k := rng.Intn(2); k > 0; k-- {
			nodes = append(nodes, string(rune('a'+rng.Intn(8))))
		}
		if len(links) == 0 && len(nodes) == 0 {
			continue
		}
		before := deepCopy(full)
		got := full.Mask(links, nodes)
		want := &Topology{byNode: make(map[string][]Edge), byIfx: make(map[endpoint][]Edge)}
		dropNode := make(map[string]bool)
		for _, n := range nodes {
			dropNode[n] = true
		}
		for _, e := range full.Edges {
			dropped := dropNode[e.Node1] || dropNode[e.Node2]
			for _, l := range links {
				dropped = dropped || l == e.Link()
			}
			if dropped {
				continue
			}
			want.Edges = append(want.Edges, e)
			want.byNode[e.Node1] = append(want.byNode[e.Node1], e)
			ep := endpoint{e.Node1, e.Iface1}
			want.byIfx[ep] = append(want.byIfx[ep], e)
		}
		if !slices.Equal(got.Edges, want.Edges) ||
			!reflect.DeepEqual(got.byNode, want.byNode) || !reflect.DeepEqual(got.byIfx, want.byIfx) {
			t.Errorf("draw %d: Mask(%v, %v) differs from a re-index of the kept edges", draw, links, nodes)
		}
		if !reflect.DeepEqual(full, before) {
			t.Errorf("draw %d: Mask modified its receiver", draw)
		}
	}
}

// deepCopy copies t's edges and indexes, edge lists included.
func deepCopy(t *Topology) *Topology {
	c := &Topology{Edges: slices.Clone(t.Edges), byNode: make(map[string][]Edge), byIfx: make(map[endpoint][]Edge)}
	for n, es := range t.byNode {
		c.byNode[n] = slices.Clone(es)
	}
	for ep, es := range t.byIfx {
		c.byIfx[ep] = slices.Clone(es)
	}
	return c
}
