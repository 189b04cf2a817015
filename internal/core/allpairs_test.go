package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/testnet"
)

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
	var texts map[string]string
	for _, spec := range netgen.Catalog() {
		if spec.Name == "NET2" {
			texts = textsOf(spec.Gen())
		}
	}
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
