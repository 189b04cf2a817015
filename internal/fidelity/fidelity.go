// Package fidelity implements the paper's two analysis-fidelity testing
// frameworks (§4.3):
//
//   - Differential engine testing (§4.3.2): the BDD reachability engine and
//     the concrete traceroute engine are validated against each other in
//     both directions — symbolic results produce representative packets
//     that must traceroute to the same disposition, and concrete FIB-driven
//     packets must be members of the corresponding symbolic sets.
//   - Validation against ground truth (§4.3.1): "lab" snapshots carry
//     hand-verified expected state (routes, session status, traceroute
//     dispositions) standing in for state collected from emulators; the
//     runner checks the model against it and is meant to run continuously
//     as the code evolves.
package fidelity

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
	"repro/internal/traceroute"
)

// Mismatch is one cross-validation discrepancy: a modeling bug in at least
// one of the two engines.
type Mismatch struct {
	Direction string // "symbolic->concrete" or "concrete->symbolic"
	Where     string
	Packet    hdr.Packet
	Expected  string
	Got       string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("[%s] %s: packet %v: expected %s, got %s",
		m.Direction, m.Where, m.Packet, m.Expected, m.Got)
}

// CrossValidate runs both differential directions over a computed data
// plane. packetsPerSource bounds the representative packets per
// (source, disposition) pair; fibSamples bounds direction-2 probes. Its
// fixed points run uncancellable, as a cut set would read as a mismatch.
func CrossValidate(dp *dataplane.Result, packetsPerSource, fibSamples int, seed int64) []Mismatch {
	g := fwdgraph.New(dp)
	an := reach.New(g)
	var out []Mismatch
	out = append(out, symbolicToConcrete(dp, an, packetsPerSource)...)
	out = append(out, concreteToSymbolic(dp, an, fibSamples, seed)...)
	return out
}

// symbolicToConcrete: for every source and *final location* (sink node,
// i.e. disposition at a specific device), pick representative packets and
// require the traceroute engine to agree ("we execute reachability queries
// for each final location in the network ... pick a representative packet
// from the headerspace and run the traceroute engine", §4.3.2).
func symbolicToConcrete(dp *dataplane.Result, an *reach.Analysis, perSource int) []Mismatch {
	var out []Mismatch
	enc := an.Enc
	tr := traceroute.New(dp)
	prefSets := [][]bdd.Ref{
		{enc.FieldEq(hdr.Protocol, hdr.ProtoTCP), enc.FieldGE(hdr.SrcPort, 1024)},
		{enc.FieldEq(hdr.Protocol, hdr.ProtoUDP)},
		{enc.FieldEq(hdr.Protocol, hdr.ProtoICMP)},
	}
	if perSource < len(prefSets) {
		prefSets = prefSets[:perSource]
	}
	for _, src := range an.Sources() {
		start, ok := an.SingleSource(src.Device, src.Iface, bdd.True)
		if !ok {
			continue
		}
		sets := an.Forward(context.Background(), start)
		d := dp.Network.Devices[src.Device]
		vrf := d.Interfaces[src.Iface].VRFOrDefault()
		for id, set := range sets {
			n := an.G.Nodes[id]
			if set == bdd.False || n.Kind != fwdgraph.KindSink {
				continue
			}
			sinkKind, sinkDev := n.Extra, n.Node_
			cleared := enc.ClearExt(set)
			for _, prefs := range prefSets {
				p, ok := enc.PickPacket(cleared, prefs...)
				if !ok {
					continue
				}
				traces := tr.Run(src.Device, vrf, src.Iface, p)
				agreed := false
				var got []string
				for _, t := range traces {
					got = append(got, fmt.Sprintf("%s@%s", t.Disposition, t.FinalNode))
					if string(t.Disposition) == sinkKind && t.FinalNode == sinkDev {
						agreed = true
					}
				}
				if !agreed {
					out = append(out, Mismatch{
						Direction: "symbolic->concrete",
						Where:     fmt.Sprintf("%s/%s", src.Device, src.Iface),
						Packet:    p,
						Expected:  fmt.Sprintf("%s@%s", sinkKind, sinkDev),
						Got:       fmt.Sprintf("%v", got),
					})
				}
			}
		}
	}
	return out
}

// concreteToSymbolic: "we walk over each node's FIB, and for each entry we
// randomly choose a packet with a destination that matches the entry's
// prefix, ... run the traceroute engine ... then run the reachability
// analysis from the terminal location and check" (§4.3.2). We verify that
// the concrete disposition's packet is a member of the symbolic sink set
// from the same start location.
func concreteToSymbolic(dp *dataplane.Result, an *reach.Analysis, samples int, seed int64) []Mismatch {
	var out []Mismatch
	enc := an.Enc
	tr := traceroute.New(dp)
	rnd := rand.New(rand.NewSource(seed))
	taken := 0
	for _, name := range dp.Network.DeviceNames() {
		d := dp.Network.Devices[name]
		vs := dp.Nodes[name].DefaultVRF()
		if vs == nil || vs.FIB == nil {
			continue
		}
		// Choose a start interface on the device (first active one).
		startIface := ""
		for _, in := range d.InterfaceNames() {
			if d.Interfaces[in].Active && len(d.Interfaces[in].Addresses) > 0 {
				startIface = in
				break
			}
		}
		if startIface == "" {
			continue
		}
		res, ok := an.Reachability(context.Background(), reach.SourceLoc{Device: name, Iface: startIface}, bdd.True)
		if !ok {
			continue
		}
		for _, entry := range vs.FIB.Entries() {
			if taken >= samples {
				return out
			}
			taken++
			var dst uint32
			if entry.Prefix.Len == 0 {
				dst = rnd.Uint32()
			} else {
				span := uint32(entry.Prefix.Last() - entry.Prefix.First())
				dst = uint32(entry.Prefix.First())
				if span > 0 {
					dst += rnd.Uint32() % (span + 1)
				}
			}
			p := hdr.Packet{
				DstIP:    ip4.Addr(dst),
				SrcIP:    ip4.Addr(rnd.Uint32()),
				Protocol: hdr.ProtoTCP,
				SrcPort:  uint16(1024 + rnd.Intn(60000)),
				DstPort:  []uint16{22, 80, 443}[rnd.Intn(3)],
			}
			vrf := d.Interfaces[startIface].VRFOrDefault()
			for _, t := range tr.Run(name, vrf, startIface, p) {
				if t.Disposition == traceroute.Loop {
					continue // the symbolic engine has no loop sink
				}
				set := res.Sinks[string(t.Disposition)]
				if enc.F.And(set, enc.PacketBDD(p)) == bdd.False {
					out = append(out, Mismatch{
						Direction: "concrete->symbolic",
						Where:     fmt.Sprintf("%s/%s", name, startIface),
						Packet:    p,
						Expected:  "membership in " + string(t.Disposition) + " set",
						Got:       "not a member",
					})
				}
			}
		}
	}
	return out
}
