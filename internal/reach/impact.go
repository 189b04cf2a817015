package reach

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
)

// HasTransforms reports whether any edge in the graph rewrites packet
// headers (NAT). A backward set on such a graph is a pre-image, not the
// post-transform set a forward pass reports at a sink, so AllPairs and
// its callers in internal/core answer one forward pass per source.
func HasTransforms(g *fwdgraph.Graph) bool {
	for i := range g.Edges {
		if g.Edges[i].Tr != nil {
			return true
		}
	}
	return false
}

// ImpactSets computes, per source location, the set of headers whose
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
// TestImpactConeDuality checks ImpactCone, the sweep's one forward pass,
// against.
func ImpactSets(g *fwdgraph.Graph, changed map[string]bool) map[SourceLoc]bdd.Ref {
	a := NewWithOptions(g, Options{Compress: false})
	f := a.Enc.F
	seeds := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		if changed[a.G.Nodes[id].Node_] {
			seeds[id] = bdd.True
		}
	}
	if len(seeds) == 0 {
		return map[SourceLoc]bdd.Ref{}
	}
	sets := a.Backward(context.Background(), seeds)

	ext := bdd.True
	if a.Enc.L.ExtBits() > 0 {
		ext = a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0)
	}
	out := make(map[SourceLoc]bdd.Ref)
	for id, set := range sets {
		n := a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSource || set == bdd.False {
			continue
		}
		// Injected packets carry ext bits = 0; restrict to that slice and
		// erase the ext bits to get the header-only impact set.
		b := a.Enc.ClearExt(f.And(set, ext))
		if b != bdd.False {
			out[SourceLoc{Device: n.Node_, Iface: n.Extra}] = b
		}
	}
	return out
}

// ImpactCone computes, per device, the headers with which any monitored
// flow can touch that device: one forward pass over the uncompressed
// graph, seeded at each monitored source with its header space. It is the
// exact forward dual of ImpactSets — for any device d and source src,
//
//	ImpactCone(g, sources)[d] ∩ sources[src] ≠ ∅
//	  ⟺  ImpactSets(g, {d})[src] ∩ sources[src] ≠ ∅
//
// because both sides characterize "some header injected at src can have
// a trajectory through d". The sweep engine uses this to classify failure
// scenarios: an element no monitored header can touch lies outside every
// monitored flow's blast radius, so failing it cannot change any
// monitored verdict (see DESIGN §8 for the proof sketch), and one pass
// here replaces a per-element backward ImpactSets computation. Devices no
// monitored header reaches are omitted from the result.
func ImpactCone(g *fwdgraph.Graph, sources map[SourceLoc]bdd.Ref) map[string]bdd.Ref {
	a := NewWithOptions(g, Options{Compress: false})
	f := a.Enc.F
	ext := bdd.True
	if a.Enc.L.ExtBits() > 0 {
		ext = a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0)
	}
	start := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		n := a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSource {
			continue
		}
		hs, ok := sources[SourceLoc{Device: n.Node_, Iface: n.Extra}]
		if !ok || hs == bdd.False {
			continue
		}
		start[id] = f.And(hs, ext)
	}
	if len(start) == 0 {
		return map[string]bdd.Ref{}
	}
	sets := a.Forward(context.Background(), start)
	out := make(map[string]bdd.Ref)
	for id, set := range sets {
		n := a.G.Nodes[id]
		if set == bdd.False || n.Node_ == "" {
			continue // shared sinks carry no device
		}
		b := a.Enc.ClearExt(set)
		if b == bdd.False {
			continue
		}
		if prev, ok := out[n.Node_]; ok {
			out[n.Node_] = f.Or(prev, b)
		} else {
			out[n.Node_] = b
		}
	}
	return out
}
