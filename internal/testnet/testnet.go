// Package testnet builds small canonical networks used by tests, examples,
// and benchmarks — including faithful reconstructions of the paper's
// Figure 1b (the non-deterministic BGP border-router pattern) and Figure 2
// (the 3-router dataflow example).
package testnet

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/config"
	"repro/internal/hdr"
	"repro/internal/ip4"
)

// Dev creates a device and registers it.
func Dev(net *config.Network, name string) *config.Device {
	d := config.NewDevice(name, "vi")
	net.Devices[name] = d
	return d
}

// Iface adds an active interface with one address.
func Iface(d *config.Device, name, addr string) *config.Interface {
	i := &config.Interface{Name: name, Active: true}
	if addr != "" {
		i.Addresses = []ip4.Prefix{ip4.MustParsePrefix(addr)}
	}
	d.Interfaces[name] = i
	return i
}

// OSPFIface enables OSPF on an interface.
func OSPFIface(i *config.Interface, area, cost uint32, passive bool) *config.Interface {
	i.OSPF = &config.OSPFInterface{Area: area, Cost: cost, Passive: passive}
	return i
}

// OSPFProc enables an OSPF process in the default VRF.
func OSPFProc(d *config.Device) *config.OSPFConfig {
	p := &config.OSPFConfig{ProcessID: 1}
	d.VRFs[config.DefaultVRF].OSPF = p
	return p
}

// BGPProc enables a BGP process in the default VRF.
func BGPProc(d *config.Device, asn uint32) *config.BGPConfig {
	p := &config.BGPConfig{ASN: asn}
	d.VRFs[config.DefaultVRF].BGP = p
	return p
}

// Neighbor adds a BGP neighbor.
func Neighbor(p *config.BGPConfig, peer string, remoteAS uint32) *config.BGPNeighbor {
	n := &config.BGPNeighbor{PeerIP: ip4.MustParseAddr(peer), RemoteAS: remoteAS, SendCommunity: true}
	p.Neighbors = append(p.Neighbors, n)
	return n
}

// Static adds a static route to the default VRF.
func Static(d *config.Device, prefix, nextHop string) {
	sr := config.StaticRoute{Prefix: ip4.MustParsePrefix(prefix)}
	if nextHop == "" {
		sr.Drop = true
	} else {
		sr.NextHop = ip4.MustParseAddr(nextHop)
	}
	v := d.VRFs[config.DefaultVRF]
	v.StaticRoutes = append(v.StaticRoutes, sr)
}

// Line3 builds r1 -- r2 -- r3 with OSPF, a LAN on r1 (192.168.1.0/24) and
// r3 (192.168.3.0/24).
func Line3() *config.Network {
	net := config.NewNetwork()
	r1, r2, r3 := Dev(net, "r1"), Dev(net, "r2"), Dev(net, "r3")
	OSPFProc(r1)
	OSPFProc(r2)
	OSPFProc(r3)
	OSPFIface(Iface(r1, "eth0", "10.0.12.1/30"), 0, 10, false)
	OSPFIface(Iface(r2, "eth0", "10.0.12.2/30"), 0, 10, false)
	OSPFIface(Iface(r2, "eth1", "10.0.23.2/30"), 0, 10, false)
	OSPFIface(Iface(r3, "eth0", "10.0.23.3/30"), 0, 10, false)
	OSPFIface(Iface(r1, "lan0", "192.168.1.1/24"), 0, 1, true)
	OSPFIface(Iface(r3, "lan0", "192.168.3.1/24"), 0, 1, true)
	return net
}

// Diamond builds r1 -> {ra, rb} -> r4 with equal OSPF costs (ECMP), LANs on
// r1 and r4.
func Diamond() *config.Network {
	net := config.NewNetwork()
	r1, ra, rb, r4 := Dev(net, "r1"), Dev(net, "ra"), Dev(net, "rb"), Dev(net, "r4")
	for _, d := range []*config.Device{r1, ra, rb, r4} {
		OSPFProc(d)
	}
	OSPFIface(Iface(r1, "up0", "10.0.1.1/30"), 0, 10, false)
	OSPFIface(Iface(ra, "down0", "10.0.1.2/30"), 0, 10, false)
	OSPFIface(Iface(r1, "up1", "10.0.2.1/30"), 0, 10, false)
	OSPFIface(Iface(rb, "down0", "10.0.2.2/30"), 0, 10, false)
	OSPFIface(Iface(ra, "up0", "10.0.3.1/30"), 0, 10, false)
	OSPFIface(Iface(r4, "down0", "10.0.3.2/30"), 0, 10, false)
	OSPFIface(Iface(rb, "up0", "10.0.4.1/30"), 0, 10, false)
	OSPFIface(Iface(r4, "down1", "10.0.4.2/30"), 0, 10, false)
	OSPFIface(Iface(r1, "lan0", "192.168.1.1/24"), 0, 1, true)
	OSPFIface(Iface(r4, "lan0", "192.168.4.1/24"), 0, 1, true)
	return net
}

// EBGPChain builds AS65001(r1) -- AS65002(r2) -- AS65003(r3), with r1
// originating 203.0.113.0/24.
func EBGPChain() *config.Network {
	net := config.NewNetwork()
	r1, r2, r3 := Dev(net, "r1"), Dev(net, "r2"), Dev(net, "r3")
	Iface(r1, "eth0", "10.0.12.1/30")
	Iface(r2, "eth0", "10.0.12.2/30")
	Iface(r2, "eth1", "10.0.23.2/30")
	Iface(r3, "eth0", "10.0.23.3/30")
	b1 := BGPProc(r1, 65001)
	Neighbor(b1, "10.0.12.2", 65002)
	b1.Networks = []ip4.Prefix{ip4.MustParsePrefix("203.0.113.0/24")}
	Static(r1, "203.0.113.0/24", "")
	b2 := BGPProc(r2, 65002)
	Neighbor(b2, "10.0.12.1", 65001)
	Neighbor(b2, "10.0.23.3", 65003)
	b3 := BGPProc(r3, 65003)
	Neighbor(b3, "10.0.23.2", 65002)
	return net
}

// Figure1b reconstructs the paper's Figure 1b: two border routers of AS
// 65000 with iBGP between them (import policy LP 200 preferring internal
// paths) and one external peer each, both advertising 10.0.0.0/8.
func Figure1b() *config.Network {
	net := config.NewNetwork()
	b1, b2 := Dev(net, "border1"), Dev(net, "border2")
	x1, x2 := Dev(net, "ext1"), Dev(net, "ext2")
	Iface(x1, "eth0", "198.51.100.1/30")
	Iface(b1, "ext0", "198.51.100.2/30")
	Iface(x2, "eth0", "198.51.101.1/30")
	Iface(b2, "ext0", "198.51.101.2/30")
	Iface(b1, "core0", "10.255.0.1/30")
	Iface(b2, "core0", "10.255.0.2/30")
	for _, x := range []*config.Device{x1, x2} {
		Static(x, "10.0.0.0/8", "")
	}
	bx1 := BGPProc(x1, 64501)
	Neighbor(bx1, "198.51.100.2", 65000)
	bx1.Networks = []ip4.Prefix{ip4.MustParsePrefix("10.0.0.0/8")}
	bx2 := BGPProc(x2, 64502)
	Neighbor(bx2, "198.51.101.2", 65000)
	bx2.Networks = []ip4.Prefix{ip4.MustParsePrefix("10.0.0.0/8")}
	for i, b := range []*config.Device{b1, b2} {
		b.RouteMaps["PREFER_INTERNAL"] = &config.RouteMap{Name: "PREFER_INTERNAL",
			Clauses: []config.RouteMapClause{{Seq: 10, Action: config.Permit,
				Sets: []config.Set{{Kind: config.SetLocalPref, Value: 200}}}}}
		bp := BGPProc(b, 65000)
		if i == 0 {
			Neighbor(bp, "198.51.100.1", 64501)
			n := Neighbor(bp, "10.255.0.2", 65000)
			n.ImportPolicy = "PREFER_INTERNAL"
			n.NextHopSelf = true
		} else {
			Neighbor(bp, "198.51.101.1", 64502)
			n := Neighbor(bp, "10.255.0.1", 65000)
			n.ImportPolicy = "PREFER_INTERNAL"
			n.NextHopSelf = true
		}
	}
	return net
}

// Figure2 reconstructs the paper's Figure 2 network: three routers with
// per-prefix FIBs (via static routes) and an outbound ACL on R1.i3 that
// allows only ssh traffic.
//
// Prefixes: P1 = 10.0.1.0/24 (behind R2 via R1.i0 side), P2 = 10.0.2.0/24,
// P3 = 10.0.3.0/24 (reached via R1.i3 toward R3).
func Figure2() *config.Network {
	net := config.NewNetwork()
	r1, r2, r3 := Dev(net, "r1"), Dev(net, "r2"), Dev(net, "r3")
	// R1.i0 faces the outside (packet entry), R1.i2 connects to R2,
	// R1.i3 connects to R3.
	Iface(r1, "i0", "10.1.0.1/24")
	Iface(r1, "i2", "10.12.0.1/30")
	Iface(r1, "i3", "10.13.0.1/30")
	Iface(r2, "i1", "10.12.0.2/30")
	Iface(r2, "lan", "10.0.1.1/24") // P1 attached to R2
	Iface(r2, "i2", "10.23.0.1/30")
	Iface(r3, "i1", "10.23.0.2/30")
	Iface(r3, "i2", "10.13.0.2/30")
	Iface(r3, "i0", "10.0.3.1/24")   // P3 attached to R3
	Iface(r2, "lan2", "10.0.2.1/24") // P2 attached to R2

	// Static routing matching the figure's FIBs.
	Static(r1, "10.0.1.0/24", "10.12.0.2") // P1 via R2
	Static(r1, "10.0.2.0/24", "10.12.0.2") // P2 via R2
	Static(r1, "10.0.3.0/24", "10.13.0.2") // P3 via R3 out i3
	Static(r2, "10.0.3.0/24", "10.23.0.2")
	Static(r3, "10.0.1.0/24", "10.23.0.1")
	Static(r3, "10.0.2.0/24", "10.23.0.1")
	Static(r2, "0.0.0.0/0", "10.12.0.1")
	Static(r3, "0.0.0.0/0", "10.13.0.1")

	// Outbound ACL on R1.i3 allowing only ssh (TCP/22).
	ssh := acl.NewLine(acl.Permit, "permit tcp any any eq 22")
	ssh.Protocol = hdr.ProtoTCP
	ssh.DstPorts = []acl.PortRange{{Lo: 22, Hi: 22}}
	r1.ACLs["SSH_ONLY"] = &acl.ACL{Name: "SSH_ONLY", Lines: []acl.Line{ssh}}
	r1.Interfaces["i3"].OutACL = "SSH_ONLY"
	r1.AddRef(config.RefACL, "SSH_ONLY", "interface i3 out")
	return net
}

// Firewall builds a three-node network with a stateful zone firewall in
// the middle: client -- fw -- server. The firewall permits TCP/80
// inside->outside and nothing outside->inside (except sessions).
func Firewall() *config.Network {
	net := config.NewNetwork()
	c, fw, s := Dev(net, "client"), Dev(net, "fw"), Dev(net, "server")
	Iface(c, "eth0", "10.1.0.2/24")
	Iface(fw, "inside0", "10.1.0.1/24")
	Iface(fw, "outside0", "10.2.0.1/24")
	Iface(s, "eth0", "10.2.0.2/24")
	Static(c, "0.0.0.0/0", "10.1.0.1")
	Static(s, "0.0.0.0/0", "10.2.0.1")
	fw.Stateful = true
	fw.Zones["inside"] = &config.Zone{Name: "inside", Interfaces: []string{"inside0"}}
	fw.Zones["outside"] = &config.Zone{Name: "outside", Interfaces: []string{"outside0"}}
	http := acl.NewLine(acl.Permit, "permit http")
	http.Protocol = hdr.ProtoTCP
	http.DstPorts = []acl.PortRange{{Lo: 80, Hi: 80}}
	fw.ACLs["HTTP_OUT"] = &acl.ACL{Name: "HTTP_OUT", Lines: []acl.Line{http}}
	fw.ZonePolicies = []config.ZonePolicy{{FromZone: "inside", ToZone: "outside", ACL: "HTTP_OUT"}}
	return net
}

// FirewallNAT is Firewall with a source-NAT rule (address pool plus port
// translation) on the firewall's outside interface: the smallest network
// whose forwarding graph rewrites headers.
func FirewallNAT() *config.Network {
	net := Firewall()
	fw := net.Devices["fw"]
	inside := acl.NewLine(acl.Permit, "inside hosts")
	inside.SrcIPs = []ip4.Prefix{ip4.MustParsePrefix("10.1.0.0/24")}
	fw.ACLs["NAT_INSIDE"] = &acl.ACL{Name: "NAT_INSIDE", Lines: []acl.Line{inside}}
	fw.NATRules = []config.NATRule{{
		Kind: config.SourceNAT, Iface: "outside0", MatchACL: "NAT_INSIDE",
		PoolLo: ip4.MustParseAddr("100.64.0.1"), PoolHi: ip4.MustParseAddr("100.64.0.4"),
		PortLo: 40000, PortHi: 40999,
	}}
	return net
}

// ECMPWithBrokenBranch is a Diamond where one branch's last hop filters
// HTTP — the canonical multipath consistency violation.
func ECMPWithBrokenBranch() *config.Network {
	net := Diamond()
	rb := net.Devices["rb"]
	deny := acl.NewLine(acl.Deny, "deny http")
	deny.Protocol = hdr.ProtoTCP
	deny.DstPorts = []acl.PortRange{{Lo: 80, Hi: 80}}
	permit := acl.NewLine(acl.Permit, "permit rest")
	rb.ACLs["NO_HTTP"] = &acl.ACL{Name: "NO_HTTP", Lines: []acl.Line{deny, permit}}
	rb.Interfaces["up0"].OutACL = "NO_HTTP"
	return net
}

// Chain builds a pure-OSPF chain of n routers with a LAN at each end;
// used for scaling micro-benchmarks.
func Chain(n int) *config.Network {
	if n < 2 {
		panic("testnet: chain needs >= 2 nodes")
	}
	net := config.NewNetwork()
	var prev *config.Device
	for i := 0; i < n; i++ {
		d := Dev(net, fmt.Sprintf("r%03d", i))
		OSPFProc(d)
		if prev != nil {
			sub := fmt.Sprintf("10.%d.%d.%d/30", 100+i/64/64%64, i/64%64, i%64*4)
			OSPFIface(Iface(prev, fmt.Sprintf("up%d", i), addrAt(sub, 1)), 0, 10, false)
			OSPFIface(Iface(d, fmt.Sprintf("down%d", i), addrAt(sub, 2)), 0, 10, false)
		}
		prev = d
	}
	OSPFIface(Iface(net.Devices["r000"], "lan0", "192.168.0.1/24"), 0, 1, true)
	OSPFIface(Iface(prev, "lan0", "192.168.255.1/24"), 0, 1, true)
	return net
}

func addrAt(cidr string, host uint32) string {
	p := ip4.MustParsePrefix(cidr)
	return fmt.Sprintf("%s/%d", ip4.Addr(uint32(p.First())+host), p.Len)
}

// BadGadget builds the classic BGP instability gadget: router r0 (AS
// 64500) originates a prefix; r1..r3 (distinct ASes) form a ring, and each
// prefers routes learned from its ring successor (LP 200) over its direct
// path to r0 (LP 100). The configuration has no stable routing solution,
// so a correct simulator must detect and report non-convergence rather
// than force an answer (paper §4.1.2: "It does not, by design, force
// convergence on networks that do not converge in reality").
func BadGadget() *config.Network {
	net := config.NewNetwork()
	r0 := Dev(net, "r0")
	Static(r0, "203.0.113.0/24", "")
	b0 := BGPProc(r0, 64500)
	b0.Networks = []ip4.Prefix{ip4.MustParsePrefix("203.0.113.0/24")}

	names := []string{"r1", "r2", "r3"}
	asns := []uint32{65001, 65002, 65003}
	routers := make([]*config.Device, 3)
	for i, n := range names {
		routers[i] = Dev(net, n)
	}
	// Spoke links r0 <-> ri on 10.0.i.0/30.
	for i := range routers {
		spoke := fmt.Sprintf("10.0.%d", i)
		Iface(r0, fmt.Sprintf("sp%d", i), spoke+".1/30")
		Iface(routers[i], "down0", spoke+".2/30")
		Neighbor(b0, spoke+".2", asns[i])
	}
	// Ring links ri -> r(i+1) on 10.1.i.0/30.
	for i := range routers {
		ring := fmt.Sprintf("10.1.%d", i)
		next := (i + 1) % 3
		Iface(routers[i], "ring-out", ring+".1/30")
		Iface(routers[next], "ring-in", ring+".2/30")
	}
	for i, d := range routers {
		d.RouteMaps["PREFER_RING"] = &config.RouteMap{Name: "PREFER_RING",
			Clauses: []config.RouteMapClause{{Seq: 10, Action: config.Permit,
				Sets: []config.Set{{Kind: config.SetLocalPref, Value: 200}}}}}
		d.RouteMaps["DIRECT"] = &config.RouteMap{Name: "DIRECT",
			Clauses: []config.RouteMapClause{{Seq: 10, Action: config.Permit,
				Sets: []config.Set{{Kind: config.SetLocalPref, Value: 100}}}}}
		bp := BGPProc(d, asns[i])
		spoke := Neighbor(bp, fmt.Sprintf("10.0.%d.1", i), 64500)
		spoke.ImportPolicy = "DIRECT"
		next := (i + 1) % 3
		prev := (i + 2) % 3
		// Session to the successor (we learn their routes, LP 200).
		succ := Neighbor(bp, fmt.Sprintf("10.1.%d.2", i), asns[next])
		succ.ImportPolicy = "PREFER_RING"
		// Session to the predecessor (they learn our routes).
		Neighbor(bp, fmt.Sprintf("10.1.%d.1", prev), asns[prev])
	}
	return net
}
