package reach

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
)

// ImpactCone computes, per device, the headers with which any monitored
// flow can touch that device: one forward pass over the uncompressed
// graph, seeded at each monitored source with its header space. It is the
// exact forward dual of a device's backward blast radius — the headers at
// each source whose trajectory can touch the device, one backward pass
// seeded at the device's nodes. For any device d and source src,
//
//	ImpactCone(g, sources)[d] ∩ sources[src] ≠ ∅
//	  ⟺  blastRadius(g, d)[src] ∩ sources[src] ≠ ∅
//
// because both sides characterize "some header injected at src can have
// a trajectory through d" (TestImpactConeDuality checks it against the
// backward pass). The sweep engine uses this to classify failure
// scenarios: an element no monitored header can touch lies outside every
// monitored flow's blast radius, so failing it cannot change any
// monitored verdict (see DESIGN §8 for the proof sketch), and one pass
// here replaces a backward pass per element. Devices no monitored header
// reaches are omitted from the result.
func ImpactCone(g *fwdgraph.Graph, sources map[SourceLoc]bdd.Ref) map[string]bdd.Ref {
	a := NewWithOptions(g, Options{Compress: false})
	f := a.Enc.F
	ext := a.ext0()
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
