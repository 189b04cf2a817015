package reach

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/testnet"
	"repro/internal/traceroute"
)

func analyze(t *testing.T, net *config.Network) (*dataplane.Result, *Analysis) {
	t.Helper()
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("dataplane did not converge: %v", dp.Warnings)
	}
	return dp, New(fwdgraph.New(dp))
}

func TestReachabilityLine(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.Line3())
	enc := a.Enc
	hs := enc.FieldEq(hdr.Protocol, hdr.ProtoTCP)
	res, ok := a.Reachability(ctx, SourceLoc{Device: "r1", Iface: "lan0"}, hs)
	if !ok {
		t.Fatal("source not found")
	}
	toLan3 := enc.F.And(res.Sinks[fwdgraph.SinkDeliveredToHost],
		enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("192.168.3.0/24")))
	if toLan3 == bdd.False {
		t.Error("TCP to r3's LAN should be delivered")
	}
	// Unroutable space lands in no-route.
	unroutable := enc.F.And(res.Sinks[fwdgraph.SinkNoRoute],
		enc.FieldEq(hdr.DstIP, uint32(ip4.MustParseAddr("8.8.8.8"))))
	if unroutable == bdd.False {
		t.Error("8.8.8.8 should be unroutable")
	}
}

func TestAcceptedAt(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.Line3())
	enc := a.Enc
	acc := a.AcceptedAt(ctx, bdd.True)
	r3set := acc["r3"]
	if r3set == bdd.False || r3set == 0 {
		t.Fatal("nothing accepted at r3")
	}
	// Packets to r3's own IP are accepted at r3.
	own := enc.FieldEq(hdr.DstIP, uint32(ip4.MustParseAddr("10.0.23.3")))
	if enc.F.And(r3set, own) == bdd.False {
		t.Error("r3's own IP not in accepted set")
	}
}

// TestDifferentialReachVsTraceroute is the §4.3.2 cross-validation in
// miniature: packets picked from every sink set must traceroute to the
// same disposition.
func TestDifferentialReachVsTraceroute(t *testing.T) {
	ctx := context.Background()
	nets := map[string]*config.Network{
		"line":    testnet.Line3(),
		"diamond": testnet.Diamond(),
		"broken":  testnet.ECMPWithBrokenBranch(),
		"figure2": testnet.Figure2(),
		"ebgp":    testnet.EBGPChain(),
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			dp, a := analyze(t, net)
			tr := traceroute.New(dp)
			enc := a.Enc
			hs := bdd.True
			for _, src := range a.Sources() {
				res, _ := a.Reachability(ctx, src, hs)
				for sink, set := range res.Sinks {
					if set == bdd.False {
						continue
					}
					p, ok := enc.PickPacket(set,
						enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
						enc.FieldGE(hdr.SrcPort, 1024))
					if !ok {
						continue
					}
					d := dp.Network.Devices[src.Device]
					vrf := d.Interfaces[src.Iface].VRFOrDefault()
					traces := tr.Run(src.Device, vrf, src.Iface, p)
					found := false
					for _, trc := range traces {
						if string(trc.Disposition) == sink {
							found = true
						}
					}
					if !found {
						got := make([]traceroute.Disposition, len(traces))
						for i := range traces {
							got[i] = traces[i].Disposition
						}
						t.Errorf("%s/%s: reach says %s for %v, traceroute says %v",
							src.Device, src.Iface, sink, p, got)
					}
				}
			}
		})
	}
}

// TestDifferentialTracerouteVsReach checks the other direction (§4.3.2):
// random concrete packets traced to a disposition must be members of the
// corresponding symbolic sink set.
func TestDifferentialTracerouteVsReach(t *testing.T) {
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(99))
	for name, net := range map[string]*config.Network{
		"broken":  testnet.ECMPWithBrokenBranch(),
		"figure2": testnet.Figure2(),
	} {
		t.Run(name, func(t *testing.T) {
			dp, a := analyze(t, net)
			tr := traceroute.New(dp)
			enc := a.Enc
			for _, src := range a.Sources() {
				res, _ := a.Reachability(ctx, src, bdd.True)
				d := dp.Network.Devices[src.Device]
				vrf := d.Interfaces[src.Iface].VRFOrDefault()
				for i := 0; i < 40; i++ {
					p := hdr.Packet{
						SrcIP:    ip4.Addr(rnd.Uint32()),
						DstIP:    ip4.Addr(0x0a000000 | rnd.Uint32()&0x00ffffff),
						Protocol: []uint8{hdr.ProtoTCP, hdr.ProtoUDP}[rnd.Intn(2)],
						SrcPort:  uint16(rnd.Intn(65536)),
						DstPort:  uint16([]int{22, 80, 443}[rnd.Intn(3)]),
					}
					for _, trc := range tr.Run(src.Device, vrf, src.Iface, p) {
						if trc.Disposition == traceroute.Loop {
							continue // reach has no loop sink; loops never reach sinks
						}
						set := res.Sinks[string(trc.Disposition)]
						if enc.F.And(set, enc.PacketBDD(p)) == bdd.False {
							t.Errorf("%s/%s: traceroute %v -> %s, but packet not in symbolic set",
								src.Device, src.Iface, p, trc.Disposition)
						}
					}
				}
			}
		})
	}
}

func TestCompressionEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, net := range map[string]*config.Network{
		"line":    testnet.Line3(),
		"broken":  testnet.ECMPWithBrokenBranch(),
		"figure2": testnet.Figure2(),
	} {
		t.Run(name, func(t *testing.T) {
			dp := dataplane.Run(net, dataplane.Options{})
			g := fwdgraph.New(dp)
			plain := NewWithOptions(g, Options{Compress: false})
			comp := NewWithOptions(g, Options{Compress: true})
			if comp.EdgeCount() >= plain.EdgeCount() {
				t.Errorf("compression did not shrink graph: %d vs %d", comp.EdgeCount(), plain.EdgeCount())
			}
			for _, src := range plain.Sources() {
				r1, _ := plain.Reachability(ctx, src, bdd.True)
				r2, _ := comp.Reachability(ctx, src, bdd.True)
				for sink, set := range r1.Sinks {
					if r2.Sinks[sink] != set {
						t.Fatalf("%v sink %s differs under compression", src, sink)
					}
				}
				for sink := range r2.Sinks {
					if _, ok := r1.Sinks[sink]; !ok && r2.Sinks[sink] != bdd.False {
						t.Fatalf("%v sink %s appears only under compression", src, sink)
					}
				}
			}
		})
	}
}

// TestDestReachBackwardMatchesForward: backward propagation agrees with
// one forward pass per source, for every destination. The zone firewall
// is the regression case for ApplyReverse on zone-setting edges, which
// used to drop the written zone, so fw's zone policy admitted every
// ingress zone in reverse.
func TestDestReachBackwardMatchesForward(t *testing.T) {
	ctx := context.Background()
	for name, net := range map[string]*config.Network{
		"line":     testnet.Line3(),
		"firewall": testnet.Firewall(),
	} {
		t.Run(name, func(t *testing.T) {
			_, a := analyze(t, net)
			for _, dst := range net.DeviceNames() {
				back := a.DestReachability(ctx, dst, bdd.True)
				fwd := a.DestReachabilityForward(ctx, dst, bdd.True)
				if len(fwd) == 0 {
					t.Fatalf("no sources reach %s", dst)
				}
				if len(back) != len(fwd) {
					t.Errorf("%s: source sets differ: %d backward vs %d forward", dst, len(back), len(fwd))
				}
				for src, set := range fwd {
					if back[src] != set {
						t.Errorf("%s from %v: backward and forward disagree", dst, src)
					}
				}
			}
		})
	}
}

func TestFigure2SSHOnly(t *testing.T) {
	ctx := context.Background()
	// Only ssh traffic to P3 makes it through R1.i3 (paper Figure 2a).
	_, a := analyze(t, testnet.Figure2())
	enc := a.Enc
	res, ok := a.Reachability(ctx, SourceLoc{Device: "r1", Iface: "i0"}, enc.FieldEq(hdr.Protocol, hdr.ProtoTCP))
	if !ok {
		t.Fatal("source missing")
	}
	toP3 := enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("10.0.3.0/24"))
	delivered := enc.F.And(res.Sinks[fwdgraph.SinkDeliveredToHost], toP3)
	if delivered == bdd.False {
		t.Fatal("no TCP delivered to P3")
	}
	// All delivered P3 traffic is ssh.
	ssh := enc.FieldEq(hdr.DstPort, 22)
	if !enc.F.Implies(delivered, ssh) {
		t.Error("non-ssh traffic leaked through R1.i3's ACL")
	}
	// Non-ssh P3 traffic is denied-out at r1.
	deniedOut := enc.F.And(res.Sinks[fwdgraph.SinkDeniedOut], toP3)
	if enc.F.And(deniedOut, enc.FieldEq(hdr.DstPort, 80)) == bdd.False {
		t.Error("http to P3 should be denied-out")
	}
}

// TestMultipathConsistency runs the query per source (nil passes) and off
// the shared passes; both readers must find the same violations.
func TestMultipathConsistency(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.Diamond())
	shared, _ := a.AllPairs(ctx)
	for _, ap := range []*AllPairs{nil, shared} {
		if v := a.MultipathConsistency(ctx, ap, bdd.True); len(v) != 0 {
			t.Errorf("clean diamond should have no violations, got %d", len(v))
		}
	}
	_, a = analyze(t, testnet.ECMPWithBrokenBranch())
	enc := a.Enc
	shared, _ = a.AllPairs(ctx)
	tcp := enc.FieldEq(hdr.Protocol, hdr.ProtoTCP)
	want := a.MultipathConsistency(ctx, nil, tcp)
	if len(want) == 0 {
		t.Fatal("broken branch should violate multipath consistency")
	}
	if got := a.MultipathConsistency(ctx, shared, tcp); !reflect.DeepEqual(got, want) {
		t.Errorf("shared passes found %v, forward passes %v", got, want)
	}
	// The violating set must be HTTP (the filtered service).
	for _, v := range want {
		if !enc.F.Implies(v.Packets, enc.FieldEq(hdr.DstPort, 80)) {
			t.Errorf("violation from %v not confined to HTTP", v.Source)
		}
		if v.Example.DstPort != 80 {
			t.Errorf("example packet should be HTTP: %v", v.Example)
		}
	}
}

func TestWaypoint(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.Line3())
	enc := a.Enc
	hs := enc.F.And(
		enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("192.168.3.0/24")),
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP))
	res, ok := a.Waypoint(ctx, SourceLoc{Device: "r1", Iface: "lan0"}, "r3", "r2", hs)
	if !ok {
		t.Fatal("waypoint query failed")
	}
	if res.Through == bdd.False {
		t.Error("traffic must traverse r2 (the only path)")
	}
	if res.Bypassing != bdd.False {
		t.Error("nothing can bypass r2 on a line topology")
	}
	// A waypoint off the path: everything bypasses.
	res2, _ := a.Waypoint(ctx, SourceLoc{Device: "r1", Iface: "lan0"}, "r3", "nonexistent", hs)
	if res2.Through != bdd.False {
		t.Error("nothing can traverse a nonexistent waypoint")
	}
}

func TestBidirectionalFirewall(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.Firewall())
	enc := a.Enc
	hs := enc.F.AndN(
		enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.1.0.0/24")),
		enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("10.2.0.0/24")),
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
	)
	res, ok := a.Bidirectional(ctx, SourceLoc{Device: "client", Iface: "eth0"}, "server", hs)
	if !ok {
		t.Fatal("bidir query failed")
	}
	if res.Forward == bdd.False {
		t.Fatal("forward HTTP should be delivered")
	}
	// Forward must be confined to HTTP (zone policy).
	if !enc.F.Implies(res.Forward, enc.FieldEq(hdr.DstPort, 80)) {
		t.Error("forward delivery should be HTTP only")
	}
	// The round trip must be possible thanks to the session fast path,
	// even though no zone policy permits outside->inside.
	if res.RoundTrip == bdd.False {
		t.Error("return traffic should pass through the firewall session")
	}
	if !enc.F.Implies(res.RoundTrip, res.Forward) {
		t.Error("round-trip set must be a subset of forward set")
	}
	// Direct outside->inside traffic (no session) must be blocked.
	rev, _ := a.Reachability(ctx, SourceLoc{Device: "server", Iface: "eth0"}, enc.F.AndN(
		enc.Prefix(hdr.DstIP, ip4.MustParsePrefix("10.1.0.0/24")),
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
	))
	if s := rev.Sinks[fwdgraph.SinkDeliveredToHost]; s != bdd.False && s != 0 {
		t.Error("unsolicited outside->inside traffic should not be delivered")
	}
}

func TestZoneBitsDoNotLeak(t *testing.T) {
	ctx := context.Background()
	// Sink sets must not depend on extension variables after ClearExt.
	_, a := analyze(t, testnet.Firewall())
	res, _ := a.Reachability(ctx, SourceLoc{Device: "client", Iface: "eth0"}, bdd.True)
	for sink, set := range res.Sinks {
		for _, v := range a.Enc.F.Support(set) {
			if v >= hdr.BaseVars {
				t.Errorf("sink %s depends on extension var %d", sink, v)
			}
		}
	}
}

func TestGraphNodeCounts(t *testing.T) {
	dp := dataplane.Run(testnet.Line3(), dataplane.Options{})
	g := fwdgraph.New(dp)
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	// Every edge endpoint is valid.
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			t.Fatal("edge endpoint out of range")
		}
	}
}

func TestDetectLoops(t *testing.T) {
	ctx := context.Background()
	// Two routers pointing default routes at each other: everything that
	// is not link-local loops forever.
	net := config.NewNetwork()
	r1, r2 := testnet.Dev(net, "r1"), testnet.Dev(net, "r2")
	testnet.Iface(r1, "eth0", "10.0.0.1/30")
	testnet.Iface(r2, "eth0", "10.0.0.2/30")
	testnet.Iface(r1, "lan0", "192.168.1.1/24")
	testnet.Static(r1, "0.0.0.0/0", "10.0.0.2")
	testnet.Static(r2, "0.0.0.0/0", "10.0.0.1")
	dp := dataplane.Run(net, dataplane.Options{})
	a := New(fwdgraph.New(dp))
	enc := a.Enc
	loops := a.DetectLoops(ctx, bdd.True)
	if len(loops) == 0 {
		t.Fatal("mutual default routes must loop")
	}
	found := false
	for _, l := range loops {
		if l.Source.Device == "r1" && l.Source.Iface == "lan0" {
			found = true
			// 8.8.8.8 loops; the link subnet and r1's own LAN do not.
			if enc.F.And(l.Packets, enc.FieldEq(hdr.DstIP, uint32(ip4.MustParseAddr("8.8.8.8")))) == bdd.False {
				t.Error("8.8.8.8 should be in the loop set")
			}
			if enc.F.And(l.Packets, enc.FieldEq(hdr.DstIP, uint32(ip4.MustParseAddr("10.0.0.2")))) != bdd.False {
				t.Error("the neighbor's own address must not loop")
			}
			// Cross-check the example against the concrete engine.
			tr := traceroute.New(dp)
			ts := tr.Run("r1", config.DefaultVRF, "lan0", l.Example)
			if len(ts) != 1 || ts[0].Disposition != traceroute.Loop {
				t.Errorf("loop example does not loop concretely: %v", ts)
			}
		}
	}
	if !found {
		t.Error("no loop reported from r1/lan0")
	}
	// A loop-free network reports nothing.
	dp2 := dataplane.Run(testnet.Line3(), dataplane.Options{})
	a2 := New(fwdgraph.New(dp2))
	if l := a2.DetectLoops(ctx, bdd.True); len(l) != 0 {
		t.Errorf("loop-free network reported loops: %v", l)
	}
}
