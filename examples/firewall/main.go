// Stateful firewall: bidirectional reachability through a zone-based
// firewall (paper §4.2.3). The forward pass installs sessions; the return
// pass rides the session fast path even though no policy permits
// outside->inside traffic. Both the symbolic (BDD) and concrete
// (traceroute) engines answer, and must agree.
package main

import (
	"context"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
	"repro/internal/testnet"
	"repro/internal/traceroute"
)

func main() {
	net := testnet.Firewall() // client -- fw (zones, stateful) -- server
	dp := dataplane.Run(net, dataplane.Options{})
	fmt.Printf("data plane converged: %v\n\n", dp.Converged)

	// Symbolic: what can make the round trip client -> server -> client?
	a := reach.New(fwdgraph.New(dp))
	enc := a.Enc
	hs := enc.F.AndN(
		enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.1.0.0/24")),
		enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("10.2.0.0/24")),
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
	)
	res, _ := a.Bidirectional(context.Background(), reach.SourceLoc{Device: "client", Iface: "eth0"}, "server", hs)
	fmt.Println("symbolic engine:")
	fmt.Printf("  forward delivery is HTTP-only: %v\n",
		enc.F.Implies(res.Forward, enc.FieldEq(hdr.DstPort, 80)))
	fmt.Printf("  round trip possible:           %v\n", res.RoundTrip != bdd.False)
	if p, ok := enc.PickPacket(res.RoundTrip, enc.FieldGE(hdr.SrcPort, 1024)); ok {
		fmt.Println("  round-trip example:           ", p)
	}

	// Concrete: trace the same flow and its reply.
	tr := traceroute.New(dp)
	syn := hdr.Packet{
		SrcIP: ip4.MustParseAddr("10.1.0.50"), DstIP: ip4.MustParseAddr("10.2.0.2"),
		Protocol: hdr.ProtoTCP, SrcPort: 42000, DstPort: 80, TCPFlags: hdr.FlagSYN,
	}
	fwd, rev := tr.Bidirectional("client", config.DefaultVRF, "eth0", syn)
	fmt.Println("\nconcrete engine (forward):")
	for _, t := range fwd {
		fmt.Println(t)
	}
	fmt.Println("\nconcrete engine (return, via session fast path):")
	for _, t := range rev {
		fmt.Println(t)
	}

	// And the unsolicited direction is blocked.
	tr.ClearSessions()
	attack := hdr.Packet{
		SrcIP: ip4.MustParseAddr("10.2.0.2"), DstIP: ip4.MustParseAddr("10.1.0.50"),
		Protocol: hdr.ProtoTCP, SrcPort: 999, DstPort: 80, TCPFlags: hdr.FlagSYN,
	}
	fmt.Println("\nunsolicited outside->inside SYN:")
	for _, t := range tr.Run("server", config.DefaultVRF, "eth0", attack) {
		fmt.Println(t)
	}
}
