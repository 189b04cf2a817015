package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/testnet"
)

// net2Texts returns the catalog's NET2 as hostname → config text.
func net2Texts(t *testing.T) map[string]string {
	t.Helper()
	for _, spec := range netgen.Catalog() {
		if spec.Name == "NET2" {
			return textsOf(spec.Gen())
		}
	}
	t.Fatal("no NET2 in the catalog")
	return nil
}

func textsOf(gen *netgen.Snapshot) map[string]string {
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	return texts
}

// sameFlows requires two answers to agree field by field. Refs are
// compared directly, so both must come from one BDD factory.
func sameFlows(t *testing.T, got, want []FlowResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d flows, want %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Source != b.Source {
			t.Fatalf("flow %d: source %v, want %v", i, a.Source, b.Source)
		}
		if a.Delivered != b.Delivered || a.Failed != b.Failed {
			t.Errorf("%v: delivered/failed sets differ", a.Source)
		}
		if a.HasPositive != b.HasPositive || a.PositiveExample != b.PositiveExample {
			t.Errorf("%v: positive example %v, want %v", a.Source, a.PositiveExample, b.PositiveExample)
		}
		if a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: negative example %v, want %v", a.Source, a.NegativeExample, b.NegativeExample)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ:\n%s\nwant\n%s", a.Source, tracesOf(a), tracesOf(b))
		}
	}
}

// TestReachabilitySharedMatchesPerSource: the default all-pairs question,
// answered from the shared backward passes, equals the per-source forward
// answer that an explicit source list gets, down to the BDD refs, the
// example packets and the traces. Both snapshots share one caching
// pipeline and therefore one analysis and factory.
func TestReachabilitySharedMatchesPerSource(t *testing.T) {
	nets := map[string]*netgen.Snapshot{
		"fabric-acls": netgen.Fabric(netgen.FabricParams{Name: "ap", Spines: 2, Pods: 2,
			AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 2, Multipath: true, EdgeACLs: true}),
		"mesh": netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 30, Degree: 4,
			LansPerNode: 1, Seed: 7}),
	}
	for name, gen := range nets {
		t.Run(name, func(t *testing.T) {
			pl := pipeline.New(pipeline.Config{})
			shared := LoadTextWith(pl, textsOf(gen))
			perSource := LoadTextWith(pl, textsOf(gen))
			if shared.Analysis() != perSource.Analysis() {
				t.Fatal("snapshots of one pipeline do not share the analysis")
			}
			got := shared.Reachability(ReachabilityParams{})
			want := perSource.Reachability(ReachabilityParams{Sources: perSource.HostFacing()})
			if len(want) == 0 {
				t.Fatal("no host-facing flows")
			}
			sameFlows(t, got, want)
			if ds := append(shared.Diags(), perSource.Diags()...); len(ds) > 0 {
				t.Errorf("diagnostics: %s", diag.Summary(ds))
			}
		})
	}
}

// TestSharedPassPathChoice arms the question fault point at the shared
// pass's scope. Where the pass is attempted — the default sources — it
// fails, leaves one question-stage diagnostic, and every source is still
// answered per source, identically to an unarmed run. Where the path is
// per source by structure — an explicit source list, a node budget — the
// pass is never attempted, so the armed point never fires.
func TestSharedPassPathChoice(t *testing.T) {
	texts := fabricTexts(t, "pc")
	pl := pipeline.New(pipeline.Config{})
	armed := LoadTextWith(pl, texts)
	explicit := LoadTextWith(pl, texts)
	budgeted := LoadTextWith(pl, texts)
	clean := LoadTextWith(pl, texts)

	restore := faults.Activate(faults.New().Enable("question", allPairsScope, faults.Rule{Kind: faults.Panic}))
	got := armed.Reachability(ReachabilityParams{})
	gotExplicit := explicit.Reachability(ReachabilityParams{Sources: explicit.HostFacing()})
	budgeted.SetBDDNodeBudget(1 << 30)
	gotBudgeted := budgeted.Reachability(ReachabilityParams{})
	restore()
	want := clean.Reachability(ReachabilityParams{})

	if len(want) == 0 {
		t.Fatal("no host-facing flows")
	}
	ds := armed.Diags()
	if len(ds) != 1 || ds[0].Stage != diag.StageQuestion || ds[0].Device != allPairsScope {
		t.Fatalf("want one question-stage diagnostic for %s, got %s", allPairsScope, diag.Summary(ds))
	}
	for name, s := range map[string]*Snapshot{"explicit": explicit, "budgeted": budgeted, "clean": clean} {
		if ds := s.Diags(); len(ds) > 0 {
			t.Errorf("%s: the shared pass was attempted: %s", name, diag.Summary(ds))
		}
	}
	sameFlows(t, got, want)
	sameFlows(t, gotExplicit, want)
	sameFlows(t, gotBudgeted, want)
}

// natLAN is testnet.FirewallNAT plus a host LAN behind the client whose
// hosts the firewall translates, so the network has host-facing sources
// whose delivered flows cross the NAT.
func natLAN() *config.Network {
	net := testnet.FirewallNAT()
	lan := ip4.MustParsePrefix("10.3.0.0/24")
	testnet.Iface(net.Devices["client"], "lan0", "10.3.0.1/24")
	inside := &net.Devices["fw"].ACLs["NAT_INSIDE"].Lines[0]
	inside.SrcIPs = append(inside.SrcIPs, lan)
	return net
}

// TestReachabilityNATFallsBack: on a graph with NAT the default question
// takes the per-source path without attempting the shared pass, and
// answers as an explicit source list does.
func TestReachabilityNATFallsBack(t *testing.T) {
	restore := faults.Activate(faults.New().Enable("question", allPairsScope, faults.Rule{Kind: faults.Panic}))
	s := &Snapshot{Net: natLAN()}
	got := s.Reachability(ReachabilityParams{})
	restore()
	if ds := s.Diags(); len(ds) > 0 {
		t.Fatalf("the shared pass was attempted on a NAT graph: %s", diag.Summary(ds))
	}
	if !reach.HasTransforms(s.Graph()) {
		t.Fatal("the graph has no NAT edge")
	}
	ref := &Snapshot{Net: natLAN()}
	want := ref.Reachability(ReachabilityParams{Sources: ref.HostFacing()})
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d flows, want %d (and some)", len(got), len(want))
	}
	f, rf := s.Graph().Enc.F, ref.Graph().Enc.F
	delivered := false
	for i := range got {
		a, b := got[i], want[i]
		if a.Source != b.Source || a.HasPositive != b.HasPositive || a.PositiveExample != b.PositiveExample ||
			a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample || tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: answer differs from the explicit-source answer", a.Source)
		}
		if f.SatCount(a.Delivered) != rf.SatCount(b.Delivered) || f.SatCount(a.Failed) != rf.SatCount(b.Failed) {
			t.Errorf("%v: delivered/failed sets differ in size", a.Source)
		}
		delivered = delivered || a.HasPositive
	}
	if !delivered {
		t.Error("no flow crosses the NAT firewall")
	}
}

// TestAllPairsOpRatio gates the §4.2.3 claim as a count: on NET2 the
// default all-pairs question takes at least ten times fewer BDD
// operations from the shared backward passes than from one forward pass
// per host-facing source. Each arm runs on a fresh caching-disabled
// snapshot, so each counts on a fresh factory; both count the example
// picking as well.
func TestAllPairsOpRatio(t *testing.T) {
	texts := net2Texts(t)
	count := func(explicit bool) uint64 {
		s := LoadTextWith(pipeline.Disabled(), texts)
		var params ReachabilityParams
		if explicit {
			params.Sources = s.HostFacing()
		}
		f := s.Analysis().Enc.F
		ops0 := f.OpCount()
		if len(s.Reachability(params)) == 0 || s.Degraded() {
			t.Fatalf("NET2: no flows or degraded: %s", diag.Summary(s.Diags()))
		}
		return f.OpCount() - ops0
	}
	perSource, shared := count(true), count(false)
	t.Logf("NET2 BDD ops: per-source forward %d, shared backward %d (%.1fx)",
		perSource, shared, float64(perSource)/float64(shared))
	if perSource < 10*shared {
		t.Errorf("per-source forward took %d ops, under 10x the shared passes' %d", perSource, shared)
	}
}

// firewallTexts renders testnet.Firewall, plus the client LAN of natLAN,
// as IOS configurations; with nat it renders testnet.FirewallNAT's
// source-NAT rule too, translating both client subnets as natLAN does.
func firewallTexts(nat bool) map[string]string {
	fw := `hostname fw
zone security inside
zone security outside
interface inside0
 ip address 10.1.0.1 255.255.255.0
 zone-member security inside
interface outside0
 ip address 10.2.0.1 255.255.255.0
 zone-member security outside
ip access-list extended HTTP_OUT
 permit tcp any any eq 80
zone-pair security source inside destination outside acl HTTP_OUT
`
	if nat {
		fw += `ip access-list extended NAT_INSIDE
 permit ip 10.1.0.0 0.0.0.255 any
 permit ip 10.3.0.0 0.0.0.255 any
ip nat source list NAT_INSIDE pool 100.64.0.1 100.64.0.4 interface outside0 ports 40000 40999
`
	}
	return map[string]string{
		"client": `hostname client
interface eth0
 ip address 10.1.0.2 255.255.255.0
interface lan0
 ip address 10.3.0.1 255.255.255.0
ip route 0.0.0.0 0.0.0.0 10.1.0.1
end
`,
		"fw": fw + "end\n",
		"server": `hostname server
interface eth0
 ip address 10.2.0.2 255.255.255.0
ip route 0.0.0.0 0.0.0.0 10.2.0.1
end
`,
	}
}

// httpsOnly is the firewall edit of the compare tests: the zone policy
// admits TCP/443 instead of TCP/80, so HTTP breaks and HTTPS newly
// arrives.
func httpsOnly(text string) string {
	return strings.Replace(text, "permit tcp any any eq 80", "permit tcp any any eq 443", 1)
}

// sameDiffs requires two comparisons to agree field by field. Refs are
// compared directly, so both must come from one BDD factory.
func sameDiffs(t *testing.T, got, want []DifferentialFlows) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d diff rows, want %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Source != b.Source {
			t.Fatalf("row %d: source %v, want %v", i, a.Source, b.Source)
		}
		if a.Broken != b.Broken || a.NewlyArrive != b.NewlyArrive {
			t.Errorf("%v: broken/newly-arriving sets differ", a.Source)
		}
		if a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("%v: broken example %v, want %v", a.Source, a.BrokenEx, b.BrokenEx)
		}
	}
}

// TestCompareWithSharedMatchesPerSource: CompareWith read off the shared
// backward passes equals the per-source forward compare, down to the BDD
// refs. Each pair is compared three times on the same snapshots: through
// the shared passes; with the question fault point armed at the shared
// pass's scope, so both passes fail, leave their diagnostics and every
// source is compared per source; and with a BDD node budget, which takes
// the per-source path without attempting the passes. NET2 and the zoned
// firewall are edited on one caching pipeline (one encoder), and the
// firewall once more on one Disabled() pipeline, whose graphs share its
// encoder too; that compare must also equal the cross-encoder compare of
// two Disabled() loads. The testnet.Firewall literals have no pipeline,
// so the compare rebuilds both analyses on the first snapshot's encoder.
func TestCompareWithSharedMatchesPerSource(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	net2 := net2Texts(t)
	const tor = "net2-p02-tor02"
	net2Base := LoadTextWith(pl, net2)
	fw := firewallTexts(false)
	fwBase := LoadTextWith(pl, fw)
	fwEdited := firewallTexts(false)
	fwEdited["fw"] = httpsOnly(fw["fw"])
	fwHTTPS := map[string]string{"fw": fwEdited["fw"]}
	fwDisabled := LoadTextWith(pipeline.Disabled(), fw)
	https := testnet.Firewall()
	https.Devices["fw"].ACLs["HTTP_OUT"].Lines[0].DstPorts = []acl.PortRange{{Lo: 443, Hi: 443}}
	cases := []struct {
		name          string
		before, after *Snapshot
		// cross, when set, is the same edit loaded on two Disabled()
		// pipelines, compared across encoders.
		cross [2]*Snapshot
	}{
		{name: "NET2-null-route", before: net2Base, after: net2Base.Edit(map[string]string{
			tor: addRoute(t, net2[tor], "ip route 10.0.0.0 255.255.255.128 Null0")})},
		{name: "firewall", before: fwBase, after: fwBase.Edit(fwHTTPS)},
		{name: "firewall-disabled", before: fwDisabled, after: fwDisabled.Edit(fwHTTPS),
			cross: [2]*Snapshot{LoadTextWith(pipeline.Disabled(), fw), LoadTextWith(pipeline.Disabled(), fwEdited)}},
		{name: "firewall-literal", before: &Snapshot{Net: testnet.Firewall()}, after: &Snapshot{Net: https}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			shared := c.before.CompareWith(c.after)
			if len(shared) == 0 {
				t.Fatal("the edit changed no flow")
			}
			if ds := c.before.Diags(); len(ds) > 0 {
				t.Fatalf("diagnostics: %s", diag.Summary(ds))
			}
			if ref := c.cross; ref[0] != nil {
				f := c.before.Graph().Enc.F
				if c.after.Graph().Enc.F != f {
					t.Fatal("an edit on one Disabled() pipeline built a second encoder")
				}
				sameDiffsAcross(t, shared, f, ref[0].CompareWith(ref[1]), ref[0].Graph().Enc.F)
			}

			restore := faults.Activate(faults.New().Enable("question", allPairsScope, faults.Rule{Kind: faults.Panic}))
			failed := c.before.CompareWith(c.after)
			ds := c.before.Diags()
			if len(ds) != 2 || ds[0].Device != allPairsScope || ds[1].Device != allPairsScope {
				restore()
				t.Fatalf("want two %s diagnostics, got %s", allPairsScope, diag.Summary(ds))
			}
			c.before.SetBDDNodeBudget(1 << 30)
			budgeted := c.before.CompareWith(c.after)
			c.before.SetBDDNodeBudget(0)
			restore()
			if ds := c.before.Diags(); len(ds) != 2 {
				t.Errorf("the budgeted compare attempted the shared passes: %s", diag.Summary(ds))
			}
			sameDiffs(t, failed, shared)
			sameDiffs(t, budgeted, shared)
		})
	}

	// On a graph with NAT the compare is per source by structure: the
	// armed fault point never fires, and a same-pipeline edit compares as
	// two cold caching-disabled loads do.
	t.Run("firewall-nat", func(t *testing.T) {
		texts := firewallTexts(true)
		edited := firewallTexts(true)
		edited["fw"] = httpsOnly(texts["fw"])
		base := LoadTextWith(pl, texts)
		want := natLAN().Devices["fw"]
		if got := base.Net.Devices["fw"]; !reflect.DeepEqual(got.NATRules, want.NATRules) ||
			!reflect.DeepEqual(got.ZonePolicies, want.ZonePolicies) {
			t.Fatalf("fw renders NAT %+v and zones %+v, want %+v and %+v",
				got.NATRules, got.ZonePolicies, want.NATRules, want.ZonePolicies)
		}
		if !reach.HasTransforms(base.Graph()) {
			t.Fatal("the graph has no NAT edge")
		}
		restore := faults.Activate(faults.New().Enable("question", allPairsScope, faults.Rule{Kind: faults.Panic}))
		got := base.CompareWith(base.Edit(map[string]string{"fw": edited["fw"]}))
		restore()
		if ds := base.Diags(); len(ds) > 0 {
			t.Fatalf("the shared pass was attempted on a NAT graph: %s", diag.Summary(ds))
		}
		cold := LoadTextWith(pipeline.Disabled(), texts)
		ref := cold.CompareWith(LoadTextWith(pipeline.Disabled(), edited))
		sameDiffsAcross(t, got, base.Graph().Enc.F, ref, cold.Graph().Enc.F)
		broken := false
		for _, d := range got {
			broken = broken || d.HasBroken
		}
		if !broken {
			t.Error("the edit broke no flow across the NAT firewall")
		}
	})
}

// sameDiffsAcross is sameDiffs for compares on two BDD factories (got's
// f, want's wf), whose refs are not comparable: rows must agree in source
// and example, and their sets in size.
func sameDiffsAcross(t *testing.T, got []DifferentialFlows, f *bdd.Factory, want []DifferentialFlows, wf *bdd.Factory) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d diff rows, want %d (and some)", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Source != b.Source || a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("row %d: %v differs from the cold row %v", i, a.Source, b.Source)
		}
		if f.SatCount(a.Broken) != wf.SatCount(b.Broken) || f.SatCount(a.NewlyArrive) != wf.SatCount(b.NewlyArrive) {
			t.Errorf("%v: broken/newly-arriving sets differ in size", a.Source)
		}
	}
}
