package dataplane

import (
	"testing"

	"repro/internal/ip4"
	"repro/internal/topo"
)

// chainLink23 is the r2<->r3 link of ebgpChain, deliberately written in
// the non-canonical orientation to exercise canonicalization.
func chainLink23() topo.Link {
	return topo.Link{Node1: "r3", Iface1: "eth0", Node2: "r2", Iface2: "eth1"}
}

func chainSession23() SessionKey {
	return MakeSessionKey("r3", ip4.MustParseAddr("10.0.23.3"), "r2", ip4.MustParseAddr("10.0.23.2"))
}

func TestSuppressLinkDown(t *testing.T) {
	r := Run(ebgpChain(), Options{Suppress: Suppression{Links: []topo.Link{chainLink23()}}})
	if !r.Converged {
		t.Fatalf("no convergence: %v", r.Warnings)
	}
	// The adjacency is gone from the inferred topology...
	if _, ok := r.Topology.EdgeFrom("r2", "eth1"); ok {
		t.Error("masked link still present in topology")
	}
	if _, ok := r.Topology.EdgeFrom("r1", "eth0"); !ok {
		t.Error("unrelated link was masked")
	}
	// ...so the r2<->r3 session cannot establish and the route stops at r2.
	for _, s := range r.Sessions {
		involved := (s.LocalNode == "r2" && s.PeerNode == "r3") ||
			(s.LocalNode == "r3" && s.PeerNode == "r2") || s.LocalNode == "r3"
		if involved && s.Up {
			t.Errorf("session over masked link is up: %v", s)
		}
	}
	if findRoute(mainRoutes(r, "r2"), "203.0.113.0/24") == nil {
		t.Error("r2 lost the route; only the r2-r3 edge should be down")
	}
	if findRoute(mainRoutes(r, "r3"), "203.0.113.0/24") != nil {
		t.Error("route crossed a masked link")
	}
}

func TestSuppressNodeDown(t *testing.T) {
	r := Run(ebgpChain(), Options{Suppress: Suppression{Nodes: []string{"r2"}}})
	if !r.Converged {
		t.Fatalf("no convergence: %v", r.Warnings)
	}
	if _, ok := r.Nodes["r2"]; ok {
		t.Error("downed node still has simulation state")
	}
	if len(r.DownNodes()) != 1 || r.DownNodes()[0] != "r2" {
		t.Errorf("DownNodes = %v, want [r2]", r.DownNodes())
	}
	if !r.DownSet()["r2"] {
		t.Error("DownSet missing r2")
	}
	for _, s := range r.Sessions {
		if s.LocalNode == "r2" {
			t.Errorf("downed node formed a session: %v", s)
		}
		if s.Up {
			t.Errorf("session through downed transit node is up: %v", s)
		}
	}
	if findRoute(mainRoutes(r, "r3"), "203.0.113.0/24") != nil {
		t.Error("route crossed a downed node")
	}
	// The survivors still compute their own state.
	if _, ok := r.Nodes["r1"]; !ok {
		t.Error("r1 missing from the run")
	}
}

func TestSuppressSessionDown(t *testing.T) {
	r := Run(ebgpChain(), Options{Suppress: Suppression{Sessions: []SessionKey{chainSession23()}}})
	if !r.Converged {
		t.Fatalf("no convergence: %v", r.Warnings)
	}
	// The underlying link is untouched...
	if _, ok := r.Topology.EdgeFrom("r2", "eth1"); !ok {
		t.Error("session suppression must not mask the link")
	}
	// ...but both directions of the session are held down with the
	// scenario reason, and the r1<->r2 session is unaffected.
	held, up := 0, 0
	for _, s := range r.Sessions {
		if s.Key() == chainSession23() {
			if s.Up || s.DownReason != ScenarioDownReason {
				t.Errorf("session not held down by scenario: %v (reason %q)", s, s.DownReason)
			}
			held++
		} else if s.Up {
			up++
		}
	}
	if held == 0 {
		t.Fatal("suppressed session never materialized")
	}
	if up == 0 {
		t.Error("unrelated r1-r2 session should stay up")
	}
	if findRoute(mainRoutes(r, "r3"), "203.0.113.0/24") != nil {
		t.Error("route crossed a held-down session")
	}
	if findRoute(mainRoutes(r, "r2"), "203.0.113.0/24") == nil {
		t.Error("r2 should still learn the route from r1")
	}
}

func TestSuppressionCanonicalAndCacheKey(t *testing.T) {
	var empty Suppression
	if got := empty.CacheKey(); got != "" {
		t.Errorf("empty suppression key = %q, want \"\"", got)
	}
	a := Suppression{
		Links:    []topo.Link{chainLink23(), chainLink23()},
		Nodes:    []string{"r2", "r2"},
		Sessions: []SessionKey{chainSession23()},
	}
	b := Suppression{
		Links:    []topo.Link{{Node1: "r2", Iface1: "eth1", Node2: "r3", Iface2: "eth0"}},
		Nodes:    []string{"r2"},
		Sessions: []SessionKey{{Node1: "r3", IP1: ip4.MustParseAddr("10.0.23.3"), Node2: "r2", IP2: ip4.MustParseAddr("10.0.23.2")}},
	}
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("orientation/duplicates changed the key:\n a=%s\n b=%s", a.CacheKey(), b.CacheKey())
	}
	c := a.Canonical()
	if len(c.Links) != 1 || len(c.Nodes) != 1 || len(c.Sessions) != 1 {
		t.Errorf("canonical did not dedup: %+v", c)
	}
	if c.Links[0].Node1 != "r2" {
		t.Errorf("link not reoriented: %v", c.Links[0])
	}
	if c.Sessions[0].Node1 != "r2" {
		t.Errorf("session key not reoriented: %v", c.Sessions[0])
	}
	// Merge unions canonically.
	m := Suppression{Nodes: []string{"r1"}}.Merge(a)
	if len(m.Nodes) != 2 || m.Nodes[0] != "r1" || m.Nodes[1] != "r2" {
		t.Errorf("merge wrong: %+v", m.Nodes)
	}
}

func TestSuppressionPersistRoundTrip(t *testing.T) {
	sup := Suppression{Links: []topo.Link{chainLink23()}}
	r := Run(ebgpChain(), Options{Suppress: sup})
	if r.Degraded() {
		t.Fatalf("suppressed run degraded: %v", r.Diags)
	}
	b, err := MarshalResult(r)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	got, err := UnmarshalResult(b, r.Network)
	if err != nil {
		t.Fatalf("UnmarshalResult: %v", err)
	}
	// The decoded result must re-apply the mask: a raw re-Infer would
	// resurrect the failed adjacency.
	if _, ok := got.Topology.EdgeFrom("r2", "eth1"); ok {
		t.Error("decode resurrected the masked link")
	}
	if got.Suppress.CacheKey() != r.Suppress.CacheKey() {
		t.Errorf("suppression not persisted: %q != %q", got.Suppress.CacheKey(), r.Suppress.CacheKey())
	}
	for n := range r.Nodes {
		if got.NodeFingerprint(n) != r.NodeFingerprint(n) {
			t.Errorf("node %s fingerprint changed across round trip", n)
		}
	}
}
