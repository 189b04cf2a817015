package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/reach"
)

const iosA = `
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.252
 ip ospf area 0
 ip access-group GHOST in
interface lan0
 ip address 192.168.1.1 255.255.255.0
 ip ospf area 0
 ip ospf passive
router ospf 1
ip access-list extended WEB_ONLY
 permit tcp any any eq 80
ntp server 192.0.2.10
`

const junosB = `
set system host-name r2
set interfaces ge-0/0/0 unit 0 family inet address 10.0.0.2/30
set protocols ospf area 0 interface ge-0/0/0
set interfaces lan0 unit 0 family inet address 192.168.2.1/24
set protocols ospf area 0 interface lan0 passive
`

func sample(t *testing.T) *Snapshot {
	t.Helper()
	s := LoadText(map[string]string{"r1.cfg": iosA, "r2.cfg": junosB})
	if len(s.Net.Devices) != 2 {
		t.Fatalf("devices: %v", s.Net.DeviceNames())
	}
	return s
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "r1.cfg"), []byte(iosA), 0o644)
	os.WriteFile(filepath.Join(dir, "r2.cfg"), []byte(junosB), 0o644)
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("ignored"), 0o644)
	s, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Net.Devices) != 2 {
		t.Fatalf("devices: %v", s.Net.DeviceNames())
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir should error")
	}
}

func TestUndefinedAndUnused(t *testing.T) {
	s := sample(t)
	undef := s.UndefinedReferences()
	if len(undef) != 1 || !strings.Contains(undef[0].Detail, "GHOST") {
		t.Errorf("undefined = %v", undef)
	}
	unused := s.UnusedStructures()
	found := false
	for _, f := range unused {
		if strings.Contains(f.Detail, "WEB_ONLY") {
			found = true
		}
	}
	if !found {
		t.Errorf("WEB_ONLY should be unused: %v", unused)
	}
}

func TestDuplicateIPs(t *testing.T) {
	s := LoadText(map[string]string{
		"a": "hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n",
		"b": "hostname b\ninterface e0\n ip address 10.0.0.1 255.255.255.0\n",
	})
	dups := s.DuplicateIPs()
	if len(dups) != 1 || !strings.Contains(dups[0].Detail, "10.0.0.1") {
		t.Errorf("dups = %v", dups)
	}
	if len(sample(t).DuplicateIPs()) != 0 {
		t.Error("clean network should have no duplicates")
	}
}

func TestNTPConsistency(t *testing.T) {
	s := sample(t)
	// r1 has an NTP server, r2 (junos) has none: one of them deviates
	// from the majority; with two devices the tie is broken
	// deterministically.
	f := s.NTPConsistency()
	if len(f) != 1 {
		t.Errorf("ntp findings = %v", f)
	}
}

func TestRoutesAndDataPlane(t *testing.T) {
	s := sample(t)
	dp := s.DataPlane()
	if !dp.Converged {
		t.Fatalf("no convergence: %v", dp.Warnings)
	}
	rts := s.Routes("r1")
	found := false
	for _, r := range rts {
		if r.Prefix == ip4.MustParsePrefix("192.168.2.0/24") {
			found = true
		}
	}
	if !found {
		t.Errorf("r1 missing OSPF route to r2's LAN: %v", rts)
	}
	if s.Routes("nonexistent") != nil {
		t.Error("unknown node should return nil")
	}
}

func TestHostFacing(t *testing.T) {
	s := sample(t)
	hf := s.HostFacing()
	want := map[string]bool{"r1/lan0": true, "r2/lan0": true}
	if len(hf) != 2 {
		t.Fatalf("host facing = %v", hf)
	}
	for _, l := range hf {
		if !want[l.Device+"/"+l.Iface] {
			t.Errorf("unexpected host-facing %v", l)
		}
	}
}

func TestTestFilterAndSearchFilter(t *testing.T) {
	s := sample(t)
	d, err := s.TestFilter("r1", "WEB_ONLY", hdr.Packet{Protocol: hdr.ProtoTCP, DstPort: 80})
	if err != nil || d.Action != acl.Permit {
		t.Errorf("TestFilter = %v, %v", d, err)
	}
	d, _ = s.TestFilter("r1", "WEB_ONLY", hdr.Packet{Protocol: hdr.ProtoTCP, DstPort: 22})
	if d.Action != acl.Deny {
		t.Errorf("ssh should be denied: %v", d)
	}
	if _, err := s.TestFilter("r1", "NOPE", hdr.Packet{}); err == nil {
		t.Error("unknown acl should error")
	}
	p, ok, err := s.SearchFilter("r1", "WEB_ONLY", acl.Permit)
	if err != nil || !ok || p.DstPort != 80 || p.Protocol != hdr.ProtoTCP {
		t.Errorf("SearchFilter permit = %v %v %v", p, ok, err)
	}
	p, ok, _ = s.SearchFilter("r1", "WEB_ONLY", acl.Deny)
	if !ok {
		t.Fatal("deny search failed")
	}
	if p.Protocol == hdr.ProtoTCP && p.DstPort == 80 {
		t.Errorf("deny example should not be permitted traffic: %v", p)
	}
}

func TestReachabilityQuestionDefaults(t *testing.T) {
	s := sample(t)
	results := s.Reachability(ReachabilityParams{})
	if len(results) != 2 {
		t.Fatalf("results = %d, want one per host-facing iface", len(results))
	}
	for _, r := range results {
		if !r.HasPositive {
			t.Errorf("%v: no positive example", r.Source)
		}
		// Default scoping pins the source IP to the LAN subnet
		// (suppressing spoofed-source noise, Lesson 4).
		if r.HasPositive {
			subnet := ip4.MustParsePrefix("192.168.0.0/16")
			if !subnet.Contains(r.PositiveExample.SrcIP) {
				t.Errorf("%v: positive example has out-of-scope source %v",
					r.Source, r.PositiveExample.SrcIP)
			}
		}
		// Negative examples must come with an explanatory trace.
		if r.HasNegative && len(r.Traces) == 0 {
			t.Errorf("%v: negative example without trace", r.Source)
		}
	}
}

func TestBGPSessionStatusQuestion(t *testing.T) {
	snap := LoadGenerated(netgen.WAN(netgen.WANParams{Name: "q", Nodes: 6, CoreMesh: 3, TransitPeers: 1}))
	fs := snap.BGPSessionStatus()
	if len(fs) == 0 {
		t.Fatal("no sessions reported")
	}
	for _, f := range fs {
		if !strings.Contains(f.Detail, "established") {
			t.Errorf("session not established: %v", f)
		}
	}
}

func TestCompareWithDetectsBrokenFlows(t *testing.T) {
	before := sample(t)
	afterTexts := map[string]string{
		"r1.cfg": strings.Replace(iosA, "ip access-group GHOST in",
			"ip access-group WEB_ONLY in", 1),
		"r2.cfg": junosB,
	}
	after := LoadText(afterTexts)
	diffs := before.CompareWith(after)
	if len(diffs) == 0 {
		t.Fatal("applying WEB_ONLY on the transit interface must break flows")
	}
	foundBroken := false
	for _, d := range diffs {
		if d.Broken != bdd.False {
			foundBroken = true
			if d.HasBroken && d.BrokenEx.Protocol == hdr.ProtoTCP && d.BrokenEx.DstPort == 80 {
				t.Errorf("HTTP should survive the change: %v", d.BrokenEx)
			}
		}
	}
	if !foundBroken {
		t.Error("no broken flows found")
	}
}

func TestMultipathConsistencyQuestion(t *testing.T) {
	s := sample(t)
	if v := s.MultipathConsistency(); len(v) != 0 {
		t.Errorf("single-path network cannot violate multipath consistency: %v", v)
	}
}

func TestServiceReachable(t *testing.T) {
	s := sample(t)
	results := s.ServiceReachable(ServiceSpec{
		DstIPs: []ip4.Prefix{ip4.MustParsePrefix("192.168.2.0/24")},
		Port:   80,
	})
	if len(results) == 0 {
		t.Fatal("no clients checked")
	}
	for _, r := range results {
		if r.Client.Device == "r1" && !r.OK {
			t.Errorf("r1's LAN should reach the web service: %+v", r)
		}
		if r.OK && r.HasEx {
			if r.Example.DstPort != 80 || r.Example.Protocol != hdr.ProtoTCP {
				t.Errorf("example out of service scope: %v", r.Example)
			}
			if !ip4.MustParsePrefix("192.168.0.0/16").Contains(r.Example.SrcIP) {
				t.Errorf("example source out of client scope: %v", r.Example)
			}
		}
	}
}

// TestUnknownSourceYieldsNoRow: a source or client the snapshot does not
// have (an unknown device, or an unknown interface of a known one) yields
// no row and no diagnostic, and a known source beside it answers as it
// does alone.
func TestUnknownSourceYieldsNoRow(t *testing.T) {
	s := sample(t)
	known := reach.SourceLoc{Device: "r1", Iface: "lan0"}
	unknown := []reach.SourceLoc{{Device: "nope", Iface: "eth0"}, {Device: "r1", Iface: "nope"}}
	want := s.Reachability(ReachabilityParams{Sources: []reach.SourceLoc{known}})
	if len(want) != 1 {
		t.Fatalf("%d rows for %v alone, want 1", len(want), known)
	}
	got := s.Reachability(ReachabilityParams{Sources: append(unknown, known)})
	if len(got) != 1 || got[0].Source != known || got[0].Delivered != want[0].Delivered {
		t.Errorf("with unknown sources: %d rows, want only %v's", len(got), known)
	}
	svc := ServiceSpec{DstIPs: []ip4.Prefix{ip4.MustParsePrefix("192.168.2.0/24")}, Port: 80, Clients: unknown}
	if rs := s.ServiceReachable(svc); len(rs) != 0 {
		t.Errorf("unknown clients: %d rows, want none", len(rs))
	}
	if ds := s.Diags(); len(ds) > 0 {
		t.Errorf("unknown sources left diagnostics: %v", ds)
	}
}

func TestServiceProtectedFindsExposure(t *testing.T) {
	// Protect r2's LAN web service, allowing only r1's LAN as a client.
	// Every other source location that can deliver is an exposure —
	// transit interfaces can, since nothing filters them.
	s := sample(t)
	allowed := []reach.SourceLoc{{Device: "r1", Iface: "lan0"}}
	exposures := s.ServiceProtected(ServiceSpec{
		DstIPs:  []ip4.Prefix{ip4.MustParsePrefix("192.168.2.0/24")},
		Port:    80,
		Clients: allowed,
	})
	if len(exposures) == 0 {
		t.Fatal("unfiltered network must expose the service")
	}
	for _, e := range exposures {
		if e.From == allowed[0] {
			t.Error("allowed client reported as exposure")
		}
		if e.Example.DstPort != 80 {
			t.Errorf("exposure example out of scope: %v", e.Example)
		}
	}
}

func TestServiceUnreachableReportsFailingExample(t *testing.T) {
	// A service address that is not routed: every client fails, and the
	// result carries a (failing) example for debugging.
	s := sample(t)
	results := s.ServiceReachable(ServiceSpec{
		DstIPs: []ip4.Prefix{ip4.MustParsePrefix("203.0.113.0/24")},
		Port:   443,
	})
	for _, r := range results {
		if r.OK {
			t.Errorf("unrouted service reported reachable from %v", r.Client)
		}
		if !r.HasEx {
			t.Errorf("failing example missing for %v", r.Client)
		}
	}
}

func TestDetectLoopsQuestion(t *testing.T) {
	s := LoadText(map[string]string{
		"a": "hostname a\ninterface e0\n ip address 10.0.0.1 255.255.255.252\nip route 0.0.0.0 0.0.0.0 10.0.0.2\n",
		"b": "hostname b\ninterface e0\n ip address 10.0.0.2 255.255.255.252\nip route 0.0.0.0 0.0.0.0 10.0.0.1\n",
	})
	if loops := s.DetectLoops(); len(loops) == 0 {
		t.Error("mutual defaults must report loops")
	}
	if loops := sample(t).DetectLoops(); len(loops) != 0 {
		t.Errorf("clean network reported loops: %v", loops)
	}
}
