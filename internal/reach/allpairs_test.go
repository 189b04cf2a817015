package reach

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/netgen"
	"repro/internal/testnet"
)

// catalogNet parses the named network of the netgen catalog.
func catalogNet(t *testing.T, name string) *config.Network {
	t.Helper()
	for _, spec := range netgen.Catalog() {
		if spec.Name == name {
			net, _ := spec.Gen().Parse()
			return net
		}
	}
	t.Fatalf("no %s in the netgen catalog", name)
	return nil
}

// meshNet parses the seeded 50-node random OSPF mesh the verification
// benchmark uses.
func meshNet(seed int64) *config.Network {
	net, _ := netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 50, Degree: 4,
		LansPerNode: 1, Seed: seed}).Parse()
	return net
}

// TestAllPairsMatchesForward pins the shared backward passes to the
// per-source forward fixed point: for every source and every sink kind,
// the sets are the same BDD. Two header spaces are checked, all packets
// and TCP only, since a source's answer is the backward set conjoined
// with its header space.
func TestAllPairsMatchesForward(t *testing.T) {
	ctx := context.Background()
	nets := []struct {
		name string
		net  func() *config.Network
	}{
		{"NET1", func() *config.Network { return catalogNet(t, "NET1") }},
		{"NET2", func() *config.Network { return catalogNet(t, "NET2") }},
		{"mesh1", func() *config.Network { return meshNet(1) }},
		{"mesh7", func() *config.Network { return meshNet(7) }},
		{"mesh3", func() *config.Network { return meshNet(3) }},
		{"firewall", testnet.Firewall},
	}
	for _, tc := range nets {
		t.Run(tc.name, func(t *testing.T) {
			_, a := analyze(t, tc.net())
			ap, ok := a.AllPairs(ctx)
			if !ok {
				t.Fatal("AllPairs refused a graph without NAT")
			}
			srcs := a.Sources()
			if len(srcs) == 0 {
				t.Fatal("no sources")
			}
			for _, hs := range []bdd.Ref{bdd.True, a.Enc.FieldEq(hdr.Protocol, hdr.ProtoTCP)} {
				for _, src := range srcs {
					want, _ := a.Reachability(ctx, src, hs)
					got, ok := ap.Sinks(src, hs)
					if !ok {
						t.Fatalf("%v: AllPairs has no such source", src)
					}
					if len(got) != len(want.Sinks) {
						t.Errorf("%v: %d sink kinds backward, %d forward", src, len(got), len(want.Sinks))
					}
					for kind, set := range want.Sinks {
						if got[kind] != set {
							t.Errorf("%v: sink %s differs between backward and forward", src, kind)
						}
					}
				}
			}
		})
	}
}

// TestAllPairsRefusesNAT: on a graph that rewrites headers the backward
// sets are pre-images, so the shared pass must decline and multipath
// consistency must still answer, one forward pass per source.
func TestAllPairsRefusesNAT(t *testing.T) {
	ctx := context.Background()
	_, a := analyze(t, testnet.FirewallNAT())
	if a.AllPairsExact() {
		t.Fatal("FirewallNAT has no transformation edge")
	}
	if _, ok := a.AllPairs(ctx); ok {
		t.Fatal("AllPairs accepted a graph with NAT")
	}
	if v := a.MultipathConsistency(ctx, nil, bdd.True); len(v) != 0 {
		t.Errorf("single-path firewall reported %d multipath violations", len(v))
	}
}

// TestCancelledPassMemoizesNothing: passes under an expired context stop
// before their first pop and leave nothing behind in the analysis, so the
// same analysis then answers exactly as a fresh one on the same graph
// (one encoder, so equal answers are equal BDD refs).
func TestCancelledPassMemoizesNothing(t *testing.T) {
	_, a := analyze(t, meshNet(3))
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := a.AllPairs(expired); ok {
		t.Fatal("AllPairs under an expired context reported a complete pass")
	}
	if a.allPairs != nil {
		t.Fatal("a cancelled AllPairs was memoized")
	}
	srcs := a.Sources()
	for _, src := range srcs {
		if res, _ := a.Reachability(expired, src, bdd.True); len(res.Sinks) != 0 {
			t.Fatalf("%v: a pass under an expired context reached %d sink kinds, want none", src, len(res.Sinks))
		}
	}

	ctx := context.Background()
	fresh := New(a.G)
	ap, ok := a.AllPairs(ctx)
	want, wantOK := fresh.AllPairs(ctx)
	if !ok || !wantOK {
		t.Fatalf("AllPairs after cancellation ok=%t, fresh ok=%t", ok, wantOK)
	}
	delivered := 0
	for _, src := range srcs {
		got, _ := ap.Sinks(src, bdd.True)
		exp, _ := want.Sinks(src, bdd.True)
		r, _ := a.Reachability(ctx, src, bdd.True)
		rf, _ := fresh.Reachability(ctx, src, bdd.True)
		if len(got) != len(exp) || len(r.Sinks) != len(rf.Sinks) {
			t.Fatalf("%v: sink kinds %d/%d after cancellation, %d/%d fresh",
				src, len(got), len(r.Sinks), len(exp), len(rf.Sinks))
		}
		for kind, set := range exp {
			if got[kind] != set || r.Sinks[kind] != rf.Sinks[kind] {
				t.Errorf("%v: sink %s differs from a fresh analysis", src, kind)
			}
		}
		if rf.Sinks[fwdgraph.SinkDeliveredToHost] != bdd.False || rf.Sinks[fwdgraph.SinkAccepted] != bdd.False {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("no source delivers anything; the comparison is vacuous")
	}
}
