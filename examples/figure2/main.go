// Figure 2: rebuild the paper's dataflow-analysis example — three routers
// where R1's interface i3 carries an outbound ACL that allows only ssh —
// and show how the BDD engine classifies traffic entering at R1.i0
// (paper §4.2.1).
package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bdd"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
	"repro/internal/testnet"
)

func main() {
	net := testnet.Figure2()
	dp := dataplane.Run(net, dataplane.Options{})
	fmt.Printf("data plane: converged=%v\n", dp.Converged)

	g := fwdgraph.New(dp)
	fmt.Println(g) // node/edge counts
	// Show the graph structure around R1, mirroring Figure 2b.
	names := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Node_ == "r1" {
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	fmt.Println("R1's dataflow nodes:")
	for _, n := range names {
		fmt.Println("  ", n)
	}

	a := reach.New(g)
	enc := a.Enc
	// All TCP packets entering the network at R1.i0 (the paper's query).
	res, _ := a.Reachability(context.Background(), reach.SourceLoc{Device: "r1", Iface: "i0"},
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP))

	toP3 := enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("10.0.3.0/24"))
	delivered := enc.F.And(res.Sinks[fwdgraph.SinkDeliveredToHost], toP3)
	denied := enc.F.And(res.Sinks[fwdgraph.SinkDeniedOut], toP3)

	fmt.Printf("\nTCP traffic from R1.i0 to P3 (10.0.3.0/24):\n")
	fmt.Printf("  delivered set is ssh-only: %v\n",
		enc.F.Implies(delivered, enc.FieldEq(hdr.DstPort, 22)))
	if p, ok := enc.PickPacket(delivered); ok {
		fmt.Println("  delivered example:", p)
	}
	if p, ok := enc.PickPacket(denied, enc.FieldEq(hdr.DstPort, 80)); ok {
		fmt.Println("  denied example:   ", p)
	}
	_ = bdd.True
}
