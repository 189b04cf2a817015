package batfish_test

import (
	"testing"

	"repro/batfish"
	"repro/internal/netgen"
)

// TestPublicAPI exercises the library exactly as a downstream user would:
// everything below goes through the exported façade only.
func TestPublicAPI(t *testing.T) {
	snap := batfish.LoadText(map[string]string{
		"r1.cfg": `
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.252
 ip ospf area 0
interface lan0
 ip address 192.168.1.1 255.255.255.0
 ip ospf area 0
 ip ospf passive
router ospf 1
`,
		"r2.cfg": `
set system host-name r2
set interfaces ge-0/0/0 unit 0 family inet address 10.0.0.2/30
set protocols ospf area 0 interface ge-0/0/0
set interfaces lan0 unit 0 family inet address 192.168.9.1/24
set protocols ospf area 0 interface lan0 passive
`,
	})
	if len(snap.Warnings) != 0 {
		t.Fatalf("warnings: %v", snap.Warnings)
	}
	if dp := snap.DataPlane(); !dp.Converged {
		t.Fatalf("no convergence: %v", dp.Warnings)
	}
	if got := len(snap.Routes("r1")); got == 0 {
		t.Fatal("no routes at r1")
	}
	results := snap.Reachability(batfish.ReachabilityParams{})
	if len(results) != 2 {
		t.Fatalf("expected 2 host-facing sources, got %d", len(results))
	}
	for _, r := range results {
		if !r.HasPositive {
			t.Errorf("%v: nothing delivered", r.Source)
		}
	}
}

func TestPublicAPIGenerated(t *testing.T) {
	snap := batfish.LoadGenerated(netgen.Fabric(netgen.FabricParams{
		Name: "pub", Spines: 2, Pods: 1, AggPerPod: 2, TorPerPod: 2,
		HostNetsPerTor: 1, Multipath: true,
	}))
	if v := snap.MultipathConsistency(); len(v) != 0 {
		t.Errorf("clean fabric inconsistent: %v", v)
	}
	if fs := snap.BGPSessionStatus(); len(fs) == 0 {
		t.Error("no sessions")
	}
}
