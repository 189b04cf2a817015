package core

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/fwdgraph"
	"repro/internal/ip4"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/topo"
)

// torUplinks discovers a ToR's links toward its aggregation switches from
// the inferred topology, so tests need not hard-code netgen iface names.
func torUplinks(t *testing.T, s *Snapshot, tor, aggSub string) []topo.Link {
	t.Helper()
	var links []topo.Link
	seen := map[topo.Link]bool{}
	for _, e := range s.DataPlane().Topology.Neighbors(tor) {
		if !seen[e.Link()] && containsSub(e.Node2, aggSub) {
			links = append(links, e.Link())
			seen[e.Link()] = true
		}
	}
	if len(links) == 0 {
		t.Fatalf("no %s uplinks found for %s", aggSub, tor)
	}
	return links
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestApplyPureFailureSharesParse(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	texts := fabricTexts(t, "pf")
	s := LoadTextWith(pl, texts)
	links := torUplinks(t, s, "pf-p01-tor01", "agg")

	sc := Scenario{LinksDown: links[:1]}
	after := s.Apply(sc)
	if after.Net != s.Net {
		t.Error("pure failure must share the parsed network outright")
	}
	if after.Pipeline() != pl {
		t.Error("Apply must keep the pipeline")
	}
	for name, k := range s.devKeys {
		if after.devKeys[name] != k {
			t.Errorf("device key for %s changed under a pure failure", name)
		}
	}
	// The derived data plane must carry the suppression and drop the edge.
	dp := after.DataPlane()
	if dp.Suppress.Empty() {
		t.Fatal("derived data plane lost the suppression")
	}
	l := links[0]
	if _, ok := dp.Topology.EdgeFrom(l.Node1, l.Iface1); ok {
		t.Error("failed link survived in the scenario topology")
	}
	if _, ok := s.DataPlane().Topology.EdgeFrom(l.Node1, l.Iface1); !ok {
		t.Error("baseline topology was mutated by the scenario")
	}
}

func TestScenarioID(t *testing.T) {
	l := topo.Link{Node1: "a", Iface1: "e0", Node2: "b", Iface2: "e0"}
	k := dataplane.MakeSessionKey("x", ip4.MustParseAddr("10.0.0.1"), "y", ip4.MustParseAddr("10.0.0.2"))
	sc1 := Scenario{NodesDown: []string{"n2", "n1"}, LinksDown: []topo.Link{l}, SessionsDown: []dataplane.SessionKey{k}}
	sc2 := Scenario{LinksDown: []topo.Link{l, l}, SessionsDown: []dataplane.SessionKey{k}, NodesDown: []string{"n1", "n2"}}
	if sc1.ID() != sc2.ID() {
		t.Errorf("ID not canonical:\n %s\n %s", sc1.ID(), sc2.ID())
	}
	if (Scenario{}).ID() != "" {
		t.Error("empty scenario must have empty ID")
	}
	if !(Scenario{}).Empty() || sc1.Empty() {
		t.Error("Empty() wrong")
	}
	if sc1.PureFailure() != true {
		t.Error("failure-only scenario must be PureFailure")
	}
	if (Scenario{ConfigEdits: map[string]string{"d": ""}}).PureFailure() {
		t.Error("config edit is not a pure failure")
	}
}

// TestScenarioIncrementalEquivalence is the scenario-layer analogue of
// TestIncrementalEquivalence: downing both uplinks of one ToR (which
// disconnects its host subnet) through Apply on a warm baseline must
// produce flow results byte-identical to a fresh same-pipeline load with
// the same scenario and value-identical to a cache-disabled reference.
func TestScenarioIncrementalEquivalence(t *testing.T) {
	texts := fabricTexts(t, "sq")
	const tor = "sq-p01-tor01"

	pl := pipeline.New(pipeline.Config{})
	base := LoadTextWith(pl, texts)
	base.Reachability(ReachabilityParams{})
	sc := Scenario{LinksDown: torUplinks(t, base, tor, "agg")}

	after := base.Apply(sc)
	incFlows := after.Reachability(ReachabilityParams{})
	incDiffs := base.CompareWith(after)
	if len(incDiffs) == 0 {
		t.Fatal("disconnecting a ToR must break flows")
	}

	// Full recomputation on the same pipeline: identical BDD refs.
	full := LoadTextWith(pl, texts).Apply(sc)
	fullFlows := full.Reachability(ReachabilityParams{})
	if len(incFlows) != len(fullFlows) {
		t.Fatalf("flow count: applied %d vs full %d", len(incFlows), len(fullFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], fullFlows[i]
		if a.Source != b.Source || a.Delivered != b.Delivered || a.Failed != b.Failed {
			t.Errorf("%v: flow sets differ from full recompute", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ from full recompute", a.Source)
		}
	}

	// Cache-disabled reference: every derived value must match.
	ref := LoadTextWith(pipeline.Disabled(), texts).Apply(sc)
	refFlows := ref.Reachability(ReachabilityParams{})
	if len(refFlows) != len(incFlows) {
		t.Fatalf("flow count vs disabled reference: %d vs %d", len(incFlows), len(refFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], refFlows[i]
		if a.Source != b.Source || a.HasPositive != b.HasPositive ||
			a.PositiveExample != b.PositiveExample ||
			a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: differs from cache-disabled reference", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ from cache-disabled reference", a.Source)
		}
	}
}

// --- impactSets edge cases ---

// impactSets computes, per source location, the set of headers whose
// trajectory from that source can touch any node of a changed device —
// the "blast radius" of a config edit. It runs one backward pass over the
// uncompressed graph (compression would merge device nodes away), seeded
// with the full packet space at every node belonging to a changed device.
//
// The result is a sound overapproximation: a header absent from a
// source's impact set provably never visits a changed device, so its
// forwarding outcome is unaffected by the edit (unchanged nodes keep
// identical transfer functions). Sources with an empty impact set are
// omitted entirely. It is the backward reference that
// TestImpactConeDuality checks reach.ImpactCone, the sweep's one forward
// pass, against.
func impactSets(g *fwdgraph.Graph, changed map[string]bool) map[reach.SourceLoc]bdd.Ref {
	a := reach.NewWithOptions(g, reach.Options{Compress: false})
	f := a.Enc.F
	seeds := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		if changed[a.G.Nodes[id].Node_] {
			seeds[id] = bdd.True
		}
	}
	if len(seeds) == 0 {
		return map[reach.SourceLoc]bdd.Ref{}
	}
	sets := a.Backward(context.Background(), seeds)

	ext := bdd.True
	if a.Enc.L.ExtBits() > 0 {
		ext = a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0)
	}
	out := make(map[reach.SourceLoc]bdd.Ref)
	for id, set := range sets {
		n := a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSource || set == bdd.False {
			continue
		}
		// Injected packets carry ext bits = 0; restrict to that slice and
		// erase the ext bits to get the header-only impact set.
		b := a.Enc.ClearExt(f.And(set, ext))
		if b != bdd.False {
			out[reach.SourceLoc{Device: n.Node_, Iface: n.Extra}] = b
		}
	}
	return out
}

func TestImpactSetsEmptyChangedSet(t *testing.T) {
	s := LoadTextWith(pipeline.New(pipeline.Config{}), fabricTexts(t, "ie"))
	out := impactSets(s.Graph(), map[string]bool{})
	if len(out) != 0 {
		t.Errorf("empty changed set must yield an empty impact map, got %d entries", len(out))
	}
	if out == nil {
		t.Error("impact map must be non-nil (empty, not absent)")
	}
}

func TestImpactSetsAllDevicesChanged(t *testing.T) {
	// A changed set covering every device must degenerate to full
	// re-analysis: every source is impacted with its full injectable
	// space, never an empty map.
	s := LoadTextWith(pipeline.New(pipeline.Config{}), fabricTexts(t, "ia"))
	changed := make(map[string]bool)
	for _, n := range s.Net.DeviceNames() {
		changed[n] = true
	}
	out := impactSets(s.Graph(), changed)
	srcs := s.Analysis().Sources()
	if len(srcs) == 0 {
		t.Fatal("fabric has no sources")
	}
	if len(out) != len(srcs) {
		t.Fatalf("all-changed impact covers %d of %d sources", len(out), len(srcs))
	}
	for _, src := range srcs {
		if out[src] == bdd.False {
			t.Errorf("source %v has an empty impact set under an all-device change", src)
		}
	}
}

func TestImpactSetsQuarantinedDeviceInChangedSet(t *testing.T) {
	// Quarantine one ToR at parse time; a changed set naming it (plus a
	// live device) must behave exactly as if only the live device changed —
	// the quarantined name has no graph nodes and contributes nothing.
	texts := fabricTexts(t, "iq")
	const quarantined = "iq-p02-tor02"
	defer faults.Activate(faults.New().
		Enable("parse", quarantined, faults.Rule{Kind: faults.Panic}))()

	s := LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	if _, ok := s.Net.Devices[quarantined]; ok {
		t.Fatal("device was not quarantined")
	}
	g := s.Graph()
	const live = "iq-p01-tor01"
	with := impactSets(g, map[string]bool{quarantined: true, live: true})
	without := impactSets(g, map[string]bool{live: true})
	if len(with) != len(without) {
		t.Fatalf("quarantined name changed the impact map size: %d vs %d", len(with), len(without))
	}
	for src, set := range without {
		if with[src] != set {
			t.Errorf("impact for %v differs when a quarantined name is added", src)
		}
	}
	if only := impactSets(g, map[string]bool{quarantined: true}); len(only) != 0 {
		t.Errorf("a changed set of only quarantined devices must be empty, got %d", len(only))
	}
}

// TestImpactConeDuality cross-checks ImpactCone against impactSets on the
// fabric: a device is in some monitored flow's cone iff the device's
// backward blast radius intersects that flow's injectable space.
func TestImpactConeDuality(t *testing.T) {
	s := LoadTextWith(pipeline.New(pipeline.Config{}), fabricTexts(t, "id"))
	g := s.Graph()
	an := s.Analysis()
	f := an.Enc.F
	srcs := an.Sources()
	if len(srcs) == 0 {
		t.Fatal("no sources")
	}
	sources := make(map[reach.SourceLoc]bdd.Ref, len(srcs))
	for _, src := range srcs {
		sources[src] = bdd.True
	}
	cone := reach.ImpactCone(g, sources)
	for _, dev := range s.Net.DeviceNames() {
		back := impactSets(g, map[string]bool{dev: true})
		backHit := false
		for _, src := range srcs {
			if set, ok := back[src]; ok && set != bdd.False {
				backHit = true
				break
			}
		}
		coneSet, inCone := cone[dev]
		coneHit := inCone && coneSet != bdd.False
		if backHit != coneHit {
			t.Errorf("device %s: backward blast radius says %v, forward cone says %v", dev, backHit, coneHit)
		}
		if coneHit && backHit {
			// The header spaces must agree, not just the hit bit: every
			// cone header must be in some source's blast radius and vice
			// versa (union over sources, since the cone unions all flows).
			var union bdd.Ref = bdd.False
			for _, src := range srcs {
				if set, ok := back[src]; ok {
					union = f.Or(union, set)
				}
			}
			if union != coneSet {
				t.Errorf("device %s: cone headers differ from blast-radius union", dev)
			}
		}
	}
}
