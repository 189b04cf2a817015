package reach

import (
	"context"
	"sort"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
)

// SourceLoc identifies a packet entry point.
type SourceLoc struct {
	Device string
	Iface  string
}

// Sources lists all interface source locations in the graph, sorted.
func (a *Analysis) Sources() []SourceLoc {
	var out []SourceLoc
	for _, n := range a.G.Nodes {
		if n.Kind == fwdgraph.KindSource {
			out = append(out, SourceLoc{Device: n.Node_, Iface: n.Extra})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Iface < out[j].Iface
	})
	return out
}

// ReachabilityResult reports, for one source location, the packet sets per
// disposition.
type ReachabilityResult struct {
	Source SourceLoc
	Sinks  map[string]bdd.Ref
}

// Reachability runs a forward analysis from one source over the given
// header space and classifies the outcome by disposition. Like every
// query here, it runs its fixed points under ctx (see Forward).
func (a *Analysis) Reachability(ctx context.Context, src SourceLoc, hs bdd.Ref) (ReachabilityResult, bool) {
	start, ok := a.SingleSource(src.Device, src.Iface, hs)
	if !ok {
		return ReachabilityResult{}, false
	}
	r := a.Forward(ctx, start)
	return ReachabilityResult{Source: src, Sinks: a.SinkSets(r)}, true
}

// AcceptedAt runs a forward analysis from all sources and returns, per
// device, the packet set that is accepted there.
func (a *Analysis) AcceptedAt(ctx context.Context, hs bdd.Ref) map[string]bdd.Ref {
	r := a.Forward(ctx, a.SourceSets(hs))
	out := make(map[string]bdd.Ref)
	for id, set := range r {
		n := a.G.Nodes[id]
		if set != bdd.False && n.Kind == fwdgraph.KindSink && n.Extra == fwdgraph.SinkAccepted {
			out[n.Node_] = a.Enc.ClearExt(set)
		}
	}
	return out
}

// DestReachability computes, via backward propagation from the accept sink
// of dstDevice, the set of packets at every source location that will be
// accepted at dstDevice (paper §4.2.3: reverse propagation "saves us from
// walking the edges that do not lie on the destination's forwarding
// tree").
func (a *Analysis) DestReachability(ctx context.Context, dstDevice string, hs bdd.Ref) map[SourceLoc]bdd.Ref {
	sinkID, ok := a.G.Lookup(fwdgraph.SinkName(fwdgraph.SinkAccepted, dstDevice))
	if !ok {
		return nil
	}
	sets := a.Backward(ctx, map[int]bdd.Ref{sinkID: hs})
	out := make(map[SourceLoc]bdd.Ref)
	f := a.Enc.F
	ext := a.ext0()
	for id, set := range sets {
		n := a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSource || set == bdd.False {
			continue
		}
		s := a.Enc.ClearExt(f.And(set, ext))
		if s != bdd.False {
			out[SourceLoc{Device: n.Node_, Iface: n.Extra}] = s
		}
	}
	return out
}

// DestReachabilityForward is the forward-propagation equivalent of
// DestReachability, kept as the ablation baseline for the reverse
// optimization benchmark. It runs one forward pass per source.
func (a *Analysis) DestReachabilityForward(ctx context.Context, dstDevice string, hs bdd.Ref) map[SourceLoc]bdd.Ref {
	sinkID, ok := a.G.Lookup(fwdgraph.SinkName(fwdgraph.SinkAccepted, dstDevice))
	if !ok {
		return nil
	}
	out := make(map[SourceLoc]bdd.Ref)
	for _, src := range a.Sources() {
		start, ok := a.SingleSource(src.Device, src.Iface, hs)
		if !ok {
			continue
		}
		r := a.Forward(ctx, start)
		if r[sinkID] != bdd.False {
			out[src] = a.Enc.ClearExt(r[sinkID])
		}
	}
	return out
}

// MultipathViolation describes a flow that is delivered on some paths and
// dropped on others — the multipath consistency query used as the
// verification benchmark in paper §6.1.
type MultipathViolation struct {
	Source  SourceLoc
	Packets bdd.Ref
	Example hdr.Packet
}

// MultipathConsistency checks every source location: a violation exists if
// some packet from that source can reach both a success sink and a failure
// sink (multipath divergence). The sink sets are read off ap, the shared
// passes, when it is non-nil, else from one forward pass per source (see
// SinksOf); the caller chooses.
func (a *Analysis) MultipathConsistency(ctx context.Context, ap *AllPairs, hs bdd.Ref) []MultipathViolation {
	var out []MultipathViolation
	for _, src := range a.Sources() {
		if v, ok := a.MultipathViolationOf(ctx, ap, src, hs); ok {
			out = append(out, v)
		}
	}
	return out
}

// MultipathViolationOf is MultipathConsistency's check of one source: its
// violation, and whether it has one.
func (a *Analysis) MultipathViolationOf(ctx context.Context, ap *AllPairs, src SourceLoc, hs bdd.Ref) (MultipathViolation, bool) {
	sinks, ok := a.SinksOf(ctx, ap, src, hs)
	if !ok {
		return MultipathViolation{}, false
	}
	f := a.Enc.F
	success, failure := Partition(sinks, f)
	both := f.And(success, failure)
	if both == bdd.False {
		return MultipathViolation{}, false
	}
	ex, _ := a.Enc.PickPacket(both,
		a.Enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
		a.Enc.FieldGE(hdr.SrcPort, 1024))
	return MultipathViolation{Source: src, Packets: both, Example: ex}, true
}

// WaypointResult partitions delivered traffic by whether it traversed the
// waypoint device.
type WaypointResult struct {
	Through   bdd.Ref // delivered and traversed the waypoint
	Bypassing bdd.Ref // delivered without traversing it
}

// Waypoint answers "does traffic from src to dstDevice traverse waypoint?"
// using one extension bit that is set when the packet crosses the waypoint
// device (paper §4.2.3: the typical verification "requires only 1 bit").
func (a *Analysis) Waypoint(ctx context.Context, src SourceLoc, dstDevice, waypoint string, hs bdd.Ref) (WaypointResult, bool) {
	wpVar := a.Enc.L.ExtVar(fwdgraph.ZoneBits) // first waypoint bit
	// Instrument: edges into the waypoint's forwarding node(s) set the bit.
	saved := make(map[int][]int)
	for i := range a.edges {
		e := &a.edges[i]
		to := a.G.Nodes[e.To]
		if to.Kind == fwdgraph.KindFwd && to.Node_ == waypoint {
			saved[i] = e.SetBits
			e.SetBits = append(append([]int(nil), e.SetBits...), wpVar)
		}
	}
	defer func() {
		for i, bits := range saved {
			a.edges[i].SetBits = bits
		}
	}()

	start, ok := a.SingleSource(src.Device, src.Iface, hs)
	if !ok {
		return WaypointResult{}, false
	}
	r := a.Forward(ctx, start)
	f := a.Enc.F
	delivered := bdd.False
	for id, set := range r {
		n := a.G.Nodes[id]
		if set != bdd.False && n.Kind == fwdgraph.KindSink && SuccessSinks[n.Extra] && n.Node_ == dstDevice {
			delivered = f.Or(delivered, set)
		}
	}
	through := f.And(delivered, f.Var(wpVar))
	bypass := f.And(delivered, f.NVar(wpVar))
	return WaypointResult{
		Through:   a.Enc.ClearExt(through),
		Bypassing: a.Enc.ClearExt(bypass),
	}, true
}

// BidirResult reports bidirectional reachability.
type BidirResult struct {
	Forward bdd.Ref // forward flows delivered to the destination
	// RoundTrip is the set of forward flows whose return flow also
	// reaches back to the source device.
	RoundTrip bdd.Ref
}

// Bidirectional computes round-trip reachability from src to dstDevice:
// a forward pass collects delivered flows and the firewall sessions they
// install; the return pass (on swapped headers) then traverses stateful
// devices through the session fast path (paper §4.2.3).
func (a *Analysis) Bidirectional(ctx context.Context, src SourceLoc, dstDevice string, hs bdd.Ref) (BidirResult, bool) {
	f := a.Enc.F
	start, ok := a.SingleSource(src.Device, src.Iface, hs)
	if !ok {
		return BidirResult{}, false
	}
	fwd := a.Forward(ctx, start)

	// Sessions: flows that crossed each stateful device's forwarding node.
	fastPath := make(map[string]bdd.Ref)
	for id, set := range fwd {
		n := a.G.Nodes[id]
		if set == bdd.False || n.Kind != fwdgraph.KindFwd {
			continue
		}
		d := a.G.Device(n.Node_)
		if d == nil || !d.Stateful {
			continue
		}
		// The return fast path matches the swapped 5-tuple.
		fp := a.Enc.SwapSrcDst(a.Enc.ClearExt(set))
		fastPath[n.Node_] = f.Or(fastPath[n.Node_], fp)
	}

	// Delivered forward flows at the destination device.
	delivered := bdd.False
	for id, set := range fwd {
		n := a.G.Nodes[id]
		if set != bdd.False && n.Kind == fwdgraph.KindSink && SuccessSinks[n.Extra] && n.Node_ == dstDevice {
			delivered = f.Or(delivered, a.Enc.ClearExt(set))
		}
	}
	if delivered == bdd.False {
		return BidirResult{Forward: bdd.False, RoundTrip: bdd.False}, true
	}

	// Return pass: swapped flows injected at the destination device.
	ret := f.And(a.Enc.SwapSrcDst(delivered), a.ext0())
	retStart := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		n := a.G.Nodes[id]
		if n.Kind == fwdgraph.KindFwd && n.Node_ == dstDevice {
			retStart[id] = ret
		}
	}
	rev := a.forward(ctx, retStart, fastPath)

	// Return flows that arrive back at the source device.
	returned := bdd.False
	for id, set := range rev {
		n := a.G.Nodes[id]
		if set != bdd.False && n.Kind == fwdgraph.KindSink && SuccessSinks[n.Extra] && n.Node_ == src.Device {
			returned = f.Or(returned, a.Enc.ClearExt(set))
		}
	}
	// Map the returned set back to forward orientation.
	roundTrip := f.And(delivered, a.Enc.SwapSrcDst(returned))
	return BidirResult{Forward: delivered, RoundTrip: roundTrip}, true
}

// LoopResult reports packets that are stuck in a forwarding loop.
type LoopResult struct {
	Source  SourceLoc
	Packets bdd.Ref
	Example hdr.Packet
}

// DetectLoops finds packets that can never reach any sink: since every
// non-looping path ends in a disposition sink (accepted, delivered,
// denied, no-route, null-routed, exits), a packet with no sink-reaching
// path from its entry point necessarily cycles forever. Computed with one
// backward pass from all sinks — the complement at each source is the
// loop set.
func (a *Analysis) DetectLoops(ctx context.Context, hs bdd.Ref) []LoopResult {
	f := a.Enc.F
	hs = f.And(hs, a.ext0())
	sinks := make(map[int]bdd.Ref)
	for id := range a.G.Nodes {
		if a.G.Nodes[id].Kind == fwdgraph.KindSink {
			sinks[id] = bdd.True
		}
	}
	reachesSink := a.Backward(ctx, sinks)
	var out []LoopResult
	for id := range a.G.Nodes {
		n := a.G.Nodes[id]
		if n.Kind != fwdgraph.KindSource {
			continue
		}
		looping := f.Diff(hs, reachesSink[id])
		if looping == bdd.False {
			continue
		}
		ex, _ := a.Enc.PickPacket(f.And(looping, bdd.True),
			a.Enc.FieldEq(hdr.Protocol, hdr.ProtoTCP))
		out = append(out, LoopResult{
			Source:  SourceLoc{Device: n.Node_, Iface: n.Extra},
			Packets: a.Enc.ClearExt(looping),
			Example: ex,
		})
	}
	return out
}
