package dataplane

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/routing"
	"repro/internal/testnet"
)

// TestRIBLoadMatchesMerge is the differential test for the artifact
// decoder's bulk RIB rebuild: every RIB UnmarshalResult builds with
// routing.(*RIB).Load must equal the RIB the former rebuild made by
// merging each persisted best route into a fresh RIB under the same
// comparator, with one clock drawn in node, VRF and RIB order — best
// sets including every clock, candidates and prefixes alike.
func TestRIBLoadMatchesMerge(t *testing.T) {
	parse := func(s *netgen.Snapshot) func() *config.Network {
		return func() *config.Network {
			net, _ := s.Parse()
			return net
		}
	}
	nets := []struct {
		name string
		net  func() *config.Network
	}{
		{"line3", testnet.Line3},
		{"diamond", testnet.Diamond},
		{"ebgpchain", testnet.EBGPChain},
		{"figure2", testnet.Figure2},
		{"firewall", testnet.Firewall},
		{"firewallnat", testnet.FirewallNAT},
		{"ecmp", testnet.ECMPWithBrokenBranch},
		{"NET1", parse(netgen.Catalog()[0].Gen())},
		{"mesh", parse(netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 30, Degree: 4,
			LansPerNode: 2, Seed: 7}))},
		{"fabric", parse(netgen.Fabric(netgen.FabricParams{Name: "fab", Spines: 2, Pods: 2,
			AggPerPod: 2, TorPerPod: 3, HostNetsPerTor: 1, Multipath: true}))},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net()
			r := Run(net, Options{})
			if r.Degraded() || !r.Converged {
				t.Fatalf("baseline run not clean: %v", r.Diags)
			}
			b, err := MarshalResult(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnmarshalResult(b, net)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(r.Nodes))
			for n := range r.Nodes {
				names = append(names, n)
			}
			sort.Strings(names)
			clock := &routing.Clock{}
			routes := 0
			attrs := map[*routing.BGPAttrs]bool{}
			loadedAttrs := map[*routing.BGPAttrs]bool{}
			for _, n := range names {
				for _, vn := range sortedVRFNames(r.Nodes[n]) {
					vs := r.Nodes[n].VRFs[vn]
					shell := &VRFState{multipathEBGP: vs.multipathEBGP, multipathIBGP: vs.multipathIBGP}
					cmps := [5]routing.Comparator{routing.ConnectedComparator, routing.MainComparator,
						routing.OSPFComparator, (&Engine{}).bgpCmp(shell), routing.MainComparator}
					loaded := got.Nodes[n].VRFs[vn].ribs()
					for i, rib := range vs.ribs() {
						merged := routing.NewRIB(cmps[i], clock)
						for _, rt := range rib.AllBest() {
							merged.Merge(rt)
							routes++
							attrs[rt.Attrs] = true
						}
						for _, rt := range loaded[i].AllBest() {
							loadedAttrs[rt.Attrs] = true
						}
						where := fmt.Sprintf("%s/%s rib %d", n, vn, i)
						compareRIBs(t, where, merged, loaded[i])
					}
				}
			}
			if routes == 0 {
				t.Fatal("no routes compared")
			}
			// Interning (§4.1.3) survives the round trip: decoded routes
			// share one attribute object wherever the computed ones did.
			if len(loadedAttrs) != len(attrs) {
				t.Errorf("%d distinct attribute objects after decode, %d computed", len(loadedAttrs), len(attrs))
			}
		})
	}
}

// compareRIBs fails unless two RIBs hold the same prefixes, candidates
// and best sets, clocks and attribute values included.
func compareRIBs(t *testing.T, where string, want, got *routing.RIB) {
	t.Helper()
	if w, g := fmt.Sprint(want.Prefixes()), fmt.Sprint(got.Prefixes()); w != g {
		t.Fatalf("%s: prefixes\n got %s\nwant %s", where, g, w)
	}
	if w, g := dumpRoutes(want.AllBest()), dumpRoutes(got.AllBest()); w != g {
		t.Fatalf("%s: best routes\n got %s\nwant %s", where, g, w)
	}
	for _, p := range want.Prefixes() {
		if w, g := dumpRoutes(want.Candidates(p)), dumpRoutes(got.Candidates(p)); w != g {
			t.Fatalf("%s: candidates of %s\n got %s\nwant %s", where, p, g, w)
		}
	}
}

// dumpRoutes renders every route field, Clock included, with attributes
// by value.
func dumpRoutes(rs []routing.Route) string {
	type fields routing.Route // drops Route.String, which omits fields
	var b strings.Builder
	for _, rt := range rs {
		a := rt.Attrs
		rt.Attrs = nil
		fmt.Fprintf(&b, "%+v", fields(rt))
		if a != nil {
			fmt.Fprintf(&b, " attrs=%+v", *a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
