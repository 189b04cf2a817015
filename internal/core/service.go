package core

import (
	"repro/internal/bdd"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
)

// The paper's §4.4.1 lesson: "general-purpose queries that can be
// parametrized flexibly are hard to use because they lead to semantic
// ambiguities. Batfish now wraps the underlying general mechanisms with
// highly task-specific queries. Checking if a service endpoint is
// reachable from its intended client locations is a separate query from
// checking if a service cannot be reached." This file provides those two
// task-specific queries, each with its own unambiguous quantifier
// structure and its own defaults.

// ServiceSpec names a service endpoint.
type ServiceSpec struct {
	DstIPs  []ip4.Prefix      // service addresses
	Port    uint16            // TCP destination port
	Proto   uint8             // 0 = TCP
	Clients []reach.SourceLoc // client locations; default: host-facing
}

func (s ServiceSpec) headerSpace(an *reach.Analysis) bdd.Ref {
	enc := an.Enc
	proto := s.Proto
	if proto == 0 {
		proto = hdr.ProtoTCP
	}
	hs := enc.F.And(
		enc.FieldEq(hdr.Protocol, uint32(proto)),
		enc.FieldEq(hdr.DstPort, uint32(s.Port)))
	dst := bdd.False
	for _, p := range s.DstIPs {
		dst = enc.F.Or(dst, enc.Prefix(hdr.DstIP, p))
	}
	return enc.F.And(hs, dst)
}

// ServiceReachableResult answers the availability question per client.
type ServiceReachableResult struct {
	Client reach.SourceLoc
	// OK means SOME in-scope packet from this client reaches the service
	// (the availability quantifier: each client must have a working path).
	OK      bool
	Example hdr.Packet // a working packet when OK, a failing one otherwise
	HasEx   bool
}

// ServiceReachable asks: can every intended client location reach the
// service? The quantifier is fixed — for each client, there must exist a
// delivered in-scope flow — eliminating the "set A reaches set B"
// ambiguity of Lesson 4. Source IPs are scoped to each client subnet and
// examples prefer unprivileged source ports, suppressing the paper's
// uninteresting-violation classes (spoofed sources, privileged ports).
func (s *Snapshot) ServiceReachable(spec ServiceSpec) (out []ServiceReachableResult) {
	s.guardQuestion("service-reachable", func() {
		out = s.serviceReachable(spec)
	})
	return out
}

func (s *Snapshot) serviceReachable(spec ServiceSpec) []ServiceReachableResult {
	an := s.Analysis()
	enc := an.Enc
	f := enc.F
	clients := spec.Clients
	if len(clients) == 0 {
		clients = s.HostFacing()
	}
	base := spec.headerSpace(an)
	var out []ServiceReachableResult
	for _, c := range clients {
		hs := f.And(base, s.sourceScope(enc, c))
		sinks, ok := s.sinkSetsFor(c, hs, nil)
		if !ok {
			continue
		}
		success, failure := reach.Partition(sinks, f)
		r := ServiceReachableResult{Client: c, OK: success != bdd.False}
		prefs := []bdd.Ref{
			enc.FieldGE(hdr.SrcPort, 1024),
			enc.FieldEq(hdr.TCPFlags, hdr.FlagSYN),
		}
		if r.OK {
			r.Example, r.HasEx = enc.PickPacket(success, prefs...)
		} else {
			r.Example, r.HasEx = enc.PickPacket(failure, prefs...)
		}
		out = append(out, r)
	}
	return out
}

// ServiceExposure is one unintended access path to a protected service.
type ServiceExposure struct {
	From    reach.SourceLoc
	Packets bdd.Ref
	Example hdr.Packet
}

// ServiceProtected asks the security-oriented converse: can anyone OUTSIDE
// the allowed client locations reach the service? The quantifier is again
// fixed — no flow from any non-allowed source location may be delivered.
// Unlike the availability query, source-IP scoping is NOT applied to the
// attacker's packets (a security check must include spoofed sources).
func (s *Snapshot) ServiceProtected(spec ServiceSpec) (out []ServiceExposure) {
	s.guardQuestion("service-protected", func() {
		out = s.serviceProtected(spec)
	})
	return out
}

func (s *Snapshot) serviceProtected(spec ServiceSpec) []ServiceExposure {
	an := s.Analysis()
	enc := an.Enc
	f := enc.F
	allowed := make(map[reach.SourceLoc]bool, len(spec.Clients))
	for _, c := range spec.Clients {
		allowed[c] = true
	}
	base := spec.headerSpace(an)
	var out []ServiceExposure
	for _, src := range an.Sources() {
		if allowed[src] {
			continue
		}
		sinks, ok := s.sinkSetsFor(src, base, nil)
		if !ok {
			continue
		}
		success, _ := reach.Partition(sinks, f)
		if success == bdd.False {
			continue
		}
		ex, _ := enc.PickPacket(success, enc.FieldGE(hdr.SrcPort, 1024))
		out = append(out, ServiceExposure{From: src, Packets: success, Example: ex})
	}
	return out
}
