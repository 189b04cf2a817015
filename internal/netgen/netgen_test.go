package netgen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/reach"
	"repro/internal/routing"
	"repro/internal/vendors"
)

func TestCatalogSizes(t *testing.T) {
	specs := Catalog()
	if len(specs) != 11 {
		t.Fatalf("catalog has %d networks, want 11", len(specs))
	}
	if specs[0].ExpectDevices != 75 {
		t.Errorf("NET1 must have 75 devices (Figure 3 workload), got %d", specs[0].ExpectDevices)
	}
	if specs[1].ExpectDevices != 92 {
		t.Errorf("NET2 must have 92 devices (APT comparison), got %d", specs[1].ExpectDevices)
	}
	prev := 0
	for _, sp := range specs {
		if sp.ExpectDevices < prev/2 {
			t.Errorf("%s breaks the rough size progression: %d after %d", sp.Name, sp.ExpectDevices, prev)
		}
		prev = sp.ExpectDevices
	}
	last := specs[len(specs)-1]
	if last.ExpectDevices < 2500 || last.ExpectDevices > 2800 {
		t.Errorf("NET11 should approximate the paper's 2735 devices, got %d", last.ExpectDevices)
	}
}

func TestGeneratedConfigsParseCleanly(t *testing.T) {
	for _, sp := range Catalog()[:5] {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			snap := sp.Gen()
			if got := len(snap.Devices); got != sp.ExpectDevices {
				t.Fatalf("generated %d devices, want %d", got, sp.ExpectDevices)
			}
			for _, dt := range snap.Devices {
				want := "ios"
				if dt.Dialect == Junos {
					want = "junos"
				}
				if got := vendors.DetectDialect(dt.Text); got != want {
					t.Errorf("%s: detected dialect %q, generated %q", dt.Hostname, got, want)
				}
			}
			net, warns := snap.Parse()
			for _, w := range warns {
				t.Errorf("parse warning: %v", w)
			}
			if len(net.Devices) != sp.ExpectDevices {
				t.Fatalf("parsed %d devices", len(net.Devices))
			}
			// No undefined references in generated configs.
			for _, d := range net.Devices {
				for _, r := range d.UndefinedRefs() {
					t.Errorf("%s: undefined ref %v", d.Hostname, r)
				}
			}
			if snap.LoC() < sp.ExpectDevices*10 {
				t.Errorf("suspiciously small configs: %d LoC for %d devices", snap.LoC(), sp.ExpectDevices)
			}
		})
	}
}

func TestFabricConverges(t *testing.T) {
	snap := Fabric(FabricParams{Name: "tf", Spines: 2, Pods: 2, AggPerPod: 2, TorPerPod: 2,
		HostNetsPerTor: 1, Multipath: true, EdgeACLs: true})
	net, warns := snap.Parse()
	if len(warns) > 0 {
		t.Fatalf("warnings: %v", warns)
	}
	dp := dataplane.Run(net, dataplane.Options{Parallelism: 4})
	if !dp.Converged {
		t.Fatalf("fabric did not converge: %v", dp.Warnings)
	}
	for _, s := range dp.Sessions {
		if !s.Up {
			t.Errorf("session down: %v", s)
		}
	}
	// Every ToR must know every other ToR's host net, with ECMP across
	// both aggs.
	tor1 := dp.Nodes["tf-p01-tor01"].DefaultVRF()
	var crossPod *routing.Route
	for _, rt := range tor1.Main.AllBest() {
		if rt.Protocol == routing.EBGP && strings.HasPrefix(rt.Prefix.String(), "10.") {
			rt := rt
			crossPod = &rt
		}
	}
	if crossPod == nil {
		t.Fatal("tor1 has no eBGP host routes")
	}
	best := tor1.BGPRIB.Best(crossPod.Prefix)
	if len(best) < 2 {
		t.Errorf("expected ECMP at tor for %v, got %d paths", crossPod.Prefix, len(best))
	}
	// Symbolic check: a host behind tor p01 can reach a host behind p02.
	g := fwdgraph.New(dp)
	a := reach.New(g)
	res, ok := a.Reachability(context.Background(), reach.SourceLoc{Device: "tf-p01-tor01", Iface: "host1"}, bdd.True)
	if !ok {
		t.Fatal("source missing")
	}
	if res.Sinks[fwdgraph.SinkDeliveredToHost] == bdd.False {
		t.Error("no cross-fabric host delivery")
	}
}

func TestWANConverges(t *testing.T) {
	snap := WAN(WANParams{Name: "tw", Nodes: 12, CoreMesh: 4, TransitPeers: 2, Chords: 2})
	net, warns := snap.Parse()
	if len(warns) > 0 {
		t.Fatalf("warnings: %v", warns)
	}
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("WAN did not converge: %v", dp.Warnings)
	}
	down := 0
	for _, s := range dp.Sessions {
		if !s.Up {
			down++
			t.Logf("session down: %v", s)
		}
	}
	if down > 0 {
		t.Errorf("%d sessions down", down)
	}
	// A non-edge core router must learn the external customer prefix over
	// iBGP with next-hop-self (next hop = edge loopback or edge link IP
	// reachable via OSPF).
	r3 := dp.Nodes["tw-r003"].DefaultVRF()
	found := false
	for _, rt := range r3.Main.AllBest() {
		if rt.Protocol == routing.IBGP && strings.HasPrefix(rt.Prefix.String(), "198.18.") {
			found = true
		}
	}
	if !found {
		t.Error("core router missing iBGP customer route")
	}
}

func TestCampusConverges(t *testing.T) {
	snap := Campus(CampusParams{Name: "tc", Core: 3, Areas: 2, AccessPerArea: 2, LansPerAccess: 2})
	net, warns := snap.Parse()
	if len(warns) > 0 {
		t.Fatalf("warnings: %v", warns)
	}
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("campus did not converge: %v", dp.Warnings)
	}
	// An access router in area 1 must have an inter-area route to an
	// area-2 LAN and an E2 default from the edge.
	acc := dp.Nodes["tc-a01-acc01"].DefaultVRF()
	var haveIA, haveE2 bool
	for _, rt := range acc.Main.AllBest() {
		if rt.Protocol == routing.OSPFIA {
			haveIA = true
		}
		if rt.Protocol == routing.OSPFE2 && rt.Prefix.Len == 0 {
			haveE2 = true
		}
	}
	if !haveIA {
		t.Error("access router missing inter-area routes")
	}
	if !haveE2 {
		t.Error("access router missing redistributed default route")
	}
}

func TestPairedDCConverges(t *testing.T) {
	snap := PairedDC("tp", FabricParams{Spines: 2, Pods: 1, AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	net, warns := snap.Parse()
	if len(warns) > 0 {
		t.Fatalf("warnings: %v", warns)
	}
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("paired DC did not converge: %v", dp.Warnings)
	}
	// A ToR in DC a must learn host prefixes of DC b (crossing the DCI).
	tora := dp.Nodes["tpa-p01-tor01"].DefaultVRF()
	found := false
	for _, rt := range tora.Main.AllBest() {
		if rt.Attrs != nil && strings.HasPrefix(rt.Prefix.String(), "10.32.") {
			found = true
		}
	}
	if !found {
		t.Error("cross-DC host routes missing at DC-a ToR")
	}
}

func TestLoCAccounting(t *testing.T) {
	snap := Fabric(FabricParams{Name: "x", Spines: 1, Pods: 1, AggPerPod: 1, TorPerPod: 1, HostNetsPerTor: 1})
	if snap.LoC() == 0 {
		t.Error("LoC should count lines")
	}
}
