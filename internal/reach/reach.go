// Package reach is the BDD-based data plane verification engine (paper
// §4.2): a dataflow analysis over the forwarding graph that computes, for
// every node, the set of packets that can reach it. On top of the core
// forward fixed point it implements the paper's extensions and
// optimizations — graph compression, backward propagation for
// single-destination and all-pairs queries, waypoint tracking,
// multipath-consistency checking, and bidirectional reachability through
// stateful devices.
package reach

import (
	"context"
	"sort"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
)

// Options tune the analysis.
type Options struct {
	// Compress removes simple pass-through nodes before propagation
	// (paper §4.2.3 "graph compression"). On by default via New.
	Compress bool
}

// Analysis owns a (possibly compressed) view of the forwarding graph.
type Analysis struct {
	G     *fwdgraph.Graph
	Enc   *hdr.Enc
	edges []fwdgraph.Edge
	out   [][]int32
	in    [][]int32
	// origin maps compressed-away node ids to themselves; kept for sinks
	// and sources which are never compressed.

	ctx context.Context // nil means context.Background()

	// Cancelled latches when a fixed-point loop observed an expired
	// context and returned an under-approximate result.
	Cancelled bool

	// allPairs memoises AllPairs once a pass completes uncancelled.
	allPairs *AllPairs
}

// WithContext attaches a context checked periodically inside the
// Forward/Backward fixed-point loops. When it expires the loop stops
// early: the returned sets are a sound under-approximation (every packet
// reported reachable truly is) and Cancelled is set. Returns the analysis
// for chaining.
func (a *Analysis) WithContext(ctx context.Context) *Analysis {
	a.ctx = ctx
	return a
}

// checkEvery is how many queue pops pass between context checks in the
// fixed-point loops — frequent enough for sub-millisecond cancellation
// latency, rare enough that the atomic load in ctx.Err is invisible.
const checkEvery = 64

func (a *Analysis) expired(pops int) bool {
	if a.ctx == nil || pops%checkEvery != 0 || a.ctx.Err() == nil {
		return false
	}
	a.Cancelled = true
	return true
}

// New builds an analysis with graph compression enabled.
func New(g *fwdgraph.Graph) *Analysis {
	return NewWithOptions(g, Options{Compress: true})
}

// NewWithOptions builds an analysis with explicit options.
func NewWithOptions(g *fwdgraph.Graph, opts Options) *Analysis {
	a := &Analysis{G: g, Enc: g.Enc}
	a.edges = append([]fwdgraph.Edge(nil), g.Edges...)
	if opts.Compress {
		a.compress()
	}
	a.reindex()
	return a
}

func (a *Analysis) reindex() {
	n := len(a.G.Nodes)
	a.out = make([][]int32, n)
	a.in = make([][]int32, n)
	for i := range a.edges {
		e := &a.edges[i]
		a.out[e.From] = append(a.out[e.From], int32(i))
		a.in[e.To] = append(a.in[e.To], int32(i))
	}
}

// EdgeCount returns the number of edges after compression.
func (a *Analysis) EdgeCount() int { return len(a.edges) }

// compress collapses pass-through nodes: a node with exactly one incoming
// and one outgoing edge, that is neither a source nor a sink, whose
// incoming edge is a pure label (no transformation or zone/waypoint
// effects), merges into a single edge with the conjoined label
// (paper §4.2.3: such nodes "only slow down the graph traversal").
func (a *Analysis) compress() {
	for {
		out := make([][]int32, len(a.G.Nodes))
		in := make([][]int32, len(a.G.Nodes))
		alive := make([]bool, len(a.edges))
		for i := range a.edges {
			alive[i] = true
			e := &a.edges[i]
			out[e.From] = append(out[e.From], int32(i))
			in[e.To] = append(in[e.To], int32(i))
		}
		changed := false
		touched := make([]bool, len(a.G.Nodes))
		for id := range a.G.Nodes {
			node := &a.G.Nodes[id]
			if node.Kind == fwdgraph.KindSource || node.Kind == fwdgraph.KindSink {
				continue
			}
			if touched[id] || len(in[id]) != 1 || len(out[id]) != 1 {
				continue
			}
			ei, eo := in[id][0], out[id][0]
			if !alive[ei] || !alive[eo] {
				continue
			}
			e1, e2 := a.edges[ei], a.edges[eo]
			if touched[e1.From] || touched[e2.To] {
				continue // adjacency stale within this sweep; next sweep
			}
			if e1.From == e2.To || e1.From == id {
				continue // avoid self loops
			}
			if !pureLabel(&e1) {
				continue
			}
			merged := e2
			merged.From = e1.From
			merged.Label = a.Enc.F.And(e1.Label, e2.Label)
			if e2.Raw != bdd.False {
				merged.Raw = a.Enc.F.And(e1.Label, e2.Raw)
			}
			a.edges[ei] = merged
			alive[eo] = false
			changed = true
			touched[e1.From] = true
			touched[e2.To] = true
			touched[id] = true
		}
		kept := a.edges[:0]
		for i := range a.edges {
			if alive[i] {
				kept = append(kept, a.edges[i])
			}
		}
		a.edges = kept
		if !changed {
			return
		}
	}
}

func pureLabel(e *fwdgraph.Edge) bool {
	return e.Tr == nil && e.ZoneSet == nil && !e.ClearZone && len(e.SetBits) == 0
}

// Forward runs the forward dataflow fixed point from the given start sets
// (node id -> packet set) and returns the reachable set per node. Sets only
// grow, unions are monotone, and the variable count is fixed, so the fixed
// point terminates even on cyclic graphs (forwarding loops).
func (a *Analysis) Forward(start map[int]bdd.Ref) []bdd.Ref {
	return a.forward(start, nil)
}

// forward optionally takes a per-device session fast-path map (device ->
// return-flow set) used by bidirectional analysis.
func (a *Analysis) forward(start map[int]bdd.Ref, fastPath map[string]bdd.Ref) []bdd.Ref {
	f := a.Enc.F
	reach := make([]bdd.Ref, len(a.G.Nodes))
	inQueue := make([]bool, len(a.G.Nodes))
	var queue []int
	push := func(n int) {
		if !inQueue[n] {
			inQueue[n] = true
			queue = append(queue, n)
		}
	}
	starts := make([]int, 0, len(start))
	for n := range start {
		starts = append(starts, n)
	}
	sort.Ints(starts)
	for _, n := range starts {
		reach[n] = f.Or(reach[n], start[n])
		push(n)
	}
	pops := 0
	for len(queue) > 0 {
		pops++
		if a.expired(pops) {
			return reach
		}
		n := queue[0]
		queue = queue[1:]
		inQueue[n] = false
		set := reach[n]
		if set == bdd.False {
			continue
		}
		for _, ei := range a.out[n] {
			e := &a.edges[ei]
			contribution := e.Apply(a.Enc, set)
			if fastPath != nil && e.Raw != bdd.False {
				if fp, ok := fastPath[a.G.Nodes[e.From].Node_]; ok && fp != bdd.False {
					// Session fast path: matching return traffic bypasses
					// the filter (Raw is the unfiltered label).
					bypass := f.And(f.And(set, fp), e.Raw)
					contribution = f.Or(contribution, bypass)
				}
			}
			if contribution == bdd.False {
				continue
			}
			next := f.Or(reach[e.To], contribution)
			if next != reach[e.To] {
				reach[e.To] = next
				push(e.To)
			}
		}
	}
	return reach
}

// Backward computes, for every node, the set of packets that — if present
// at that node — would eventually reach one of the given sink sets. For a
// single-destination query this walks only the destination's forwarding
// cone instead of the whole graph (paper §4.2.3 "single-destination
// reverse propagation").
func (a *Analysis) Backward(sinks map[int]bdd.Ref) []bdd.Ref {
	f := a.Enc.F
	sets := make([]bdd.Ref, len(a.G.Nodes))
	inQueue := make([]bool, len(a.G.Nodes))
	var queue []int
	push := func(n int) {
		if !inQueue[n] {
			inQueue[n] = true
			queue = append(queue, n)
		}
	}
	ns := make([]int, 0, len(sinks))
	for n := range sinks {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		sets[n] = f.Or(sets[n], sinks[n])
		push(n)
	}
	pops := 0
	for len(queue) > 0 {
		pops++
		if a.expired(pops) {
			return sets
		}
		n := queue[0]
		queue = queue[1:]
		inQueue[n] = false
		set := sets[n]
		if set == bdd.False {
			continue
		}
		for _, ei := range a.in[n] {
			e := &a.edges[ei]
			contribution := e.ApplyReverse(a.Enc, set)
			if contribution == bdd.False {
				continue
			}
			next := f.Or(sets[e.From], contribution)
			if next != sets[e.From] {
				sets[e.From] = next
				push(e.From)
			}
		}
	}
	return sets
}

// AllPairs is the all-pairs reachability answer computed backward: per
// sink kind, the packets that, present at a node, reach some sink of
// that kind. One backward pass per kind, each seeded with every sink of
// the kind over all headers, replaces one forward pass per source (paper
// §4.2.3): a source's sink sets are then one conjunction per kind away.
type AllPairs struct {
	a     *Analysis
	kinds []string    // sink kinds present in the graph, sorted
	sets  [][]bdd.Ref // sets[k][node] for kinds[k]
	ext0  bdd.Ref     // extension bits = 0, as on injected packets
}

// AllPairs runs, once per analysis, the backward pass of every sink kind.
// ok is false when the graph rewrites headers (NAT): a backward set is
// then a pre-image, not the post-transform set a forward pass reports at
// the sink, so callers answer per source with Reachability. A pass cut
// short by cancellation is not memoised and also reports ok=false.
func (a *Analysis) AllPairs() (*AllPairs, bool) {
	if a.allPairs != nil {
		return a.allPairs, true
	}
	if a.Cancelled || HasTransforms(a.G) {
		return nil, false
	}
	seeds := make(map[string]map[int]bdd.Ref)
	for id := range a.G.Nodes {
		n := &a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSink {
			continue
		}
		if seeds[n.Extra] == nil {
			seeds[n.Extra] = make(map[int]bdd.Ref)
		}
		seeds[n.Extra][id] = bdd.True
	}
	p := &AllPairs{a: a, ext0: bdd.True}
	if bits := a.Enc.L.ExtBits(); bits > 0 {
		p.ext0 = a.Enc.ExtEq(0, bits, 0)
	}
	for kind := range seeds {
		p.kinds = append(p.kinds, kind)
	}
	sort.Strings(p.kinds)
	for _, kind := range p.kinds {
		p.sets = append(p.sets, a.Backward(seeds[kind]))
		if a.Cancelled {
			return nil, false
		}
	}
	a.allPairs = p
	return p, true
}

// Sinks returns, per sink kind, the packets injected at src within hs
// that reach a sink of that kind, with extension bits erased: the Sinks
// of Reachability(src, hs), read off the backward sets. ok is false when
// src is not a source of the graph.
func (p *AllPairs) Sinks(src SourceLoc, hs bdd.Ref) (map[string]bdd.Ref, bool) {
	id, ok := p.a.G.Lookup(fwdgraph.SourceName(src.Device, src.Iface))
	if !ok {
		return nil, false
	}
	enc := p.a.Enc
	hs = enc.F.And(hs, p.ext0)
	out := make(map[string]bdd.Ref)
	for k, kind := range p.kinds {
		if set := enc.ClearExt(enc.F.And(p.sets[k][id], hs)); set != bdd.False {
			out[kind] = set
		}
	}
	return out, true
}

// SourceSets builds the default start map: every interface source node
// carries the given header space, constrained to zone/waypoint bits = 0.
func (a *Analysis) SourceSets(hs bdd.Ref) map[int]bdd.Ref {
	f := a.Enc.F
	if a.Enc.L.ExtBits() > 0 {
		hs = f.And(hs, a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0))
	}
	start := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		if a.G.Nodes[id].Kind == fwdgraph.KindSource {
			start[id] = hs
		}
	}
	return start
}

// SingleSource builds a start map for one interface source.
func (a *Analysis) SingleSource(device, iface string, hs bdd.Ref) (map[int]bdd.Ref, bool) {
	id, ok := a.G.Lookup(fwdgraph.SourceName(device, iface))
	if !ok {
		return nil, false
	}
	f := a.Enc.F
	if a.Enc.L.ExtBits() > 0 {
		hs = f.And(hs, a.Enc.ExtEq(0, a.Enc.L.ExtBits(), 0))
	}
	return map[int]bdd.Ref{id: hs}, true
}

// SinkSets groups reachable sets by sink kind, with zone/waypoint bits
// erased for presentation.
func (a *Analysis) SinkSets(reach []bdd.Ref) map[string]bdd.Ref {
	f := a.Enc.F
	out := make(map[string]bdd.Ref)
	for id, set := range reach {
		if set == bdd.False || a.G.Nodes[id].Kind != fwdgraph.KindSink {
			continue
		}
		kind := a.G.Nodes[id].Extra
		out[kind] = f.Or(out[kind], a.Enc.ClearExt(set))
	}
	return out
}

// SuccessSinks are the dispositions that count as "delivered".
var SuccessSinks = map[string]bool{
	fwdgraph.SinkAccepted:        true,
	fwdgraph.SinkExitsNetwork:    true,
	fwdgraph.SinkDeliveredToHost: true,
}

// Partition splits sink sets into delivered and failed packet sets.
func Partition(sinks map[string]bdd.Ref, f *bdd.Factory) (success, failure bdd.Ref) {
	success, failure = bdd.False, bdd.False
	for kind, set := range sinks {
		if SuccessSinks[kind] {
			success = f.Or(success, set)
		} else {
			failure = f.Or(failure, set)
		}
	}
	return success, failure
}
