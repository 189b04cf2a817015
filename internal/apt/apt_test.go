package apt

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/reach"
	"repro/internal/testnet"
)

func build(t *testing.T, net *config.Network) (*fwdgraph.Graph, *Analysis) {
	t.Helper()
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("no convergence: %v", dp.Warnings)
	}
	g := fwdgraph.New(dp)
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func TestAtomsPartitionHeaderSpace(t *testing.T) {
	g, a := build(t, testnet.Line3())
	f := g.Enc.F
	union := bdd.False
	for i, atom := range a.Atoms {
		if atom == bdd.False {
			t.Fatalf("atom %d is empty", i)
		}
		if f.And(union, atom) != bdd.False {
			t.Fatalf("atom %d overlaps earlier atoms", i)
		}
		union = f.Or(union, atom)
	}
	if union != bdd.True {
		t.Fatal("atoms do not cover header space")
	}
}

func TestEveryPredicateIsAtomUnion(t *testing.T) {
	g, a := build(t, testnet.Figure2())
	for i := range g.Edges {
		p := g.Edges[i].Label
		// Reconstruct the predicate from its atom set.
		rebuilt := a.BDDOf(a.edgeSets[i])
		if rebuilt != p {
			t.Fatalf("edge %d predicate is not a union of atoms (%d atoms)", i, a.NumAtoms)
		}
	}
}

func TestDestReachabilityMatchesBDDEngine(t *testing.T) {
	for name, net := range map[string]*config.Network{
		"line":    testnet.Line3(),
		"diamond": testnet.Diamond(),
		"figure2": testnet.Figure2(),
		"broken":  testnet.ECMPWithBrokenBranch(),
	} {
		t.Run(name, func(t *testing.T) {
			g, a := build(t, net)
			r := reach.New(g)
			for _, dstDev := range []string{"r1", "r3", "r4"} {
				if g.Device(dstDev) == nil {
					continue
				}
				want := r.DestReachability(context.Background(), dstDev, bdd.True)
				got := a.DestReachability(dstDev)
				if len(want) != len(got) {
					t.Fatalf("dst %s: source count %d (bdd) vs %d (apt)", dstDev, len(want), len(got))
				}
				for src, set := range want {
					bs, ok := got[fwdgraph.SourceName(src.Device, src.Iface)]
					if !ok {
						t.Fatalf("dst %s: apt missing source %v", dstDev, src)
					}
					if a.BDDOf(bs) != set {
						t.Fatalf("dst %s src %v: atom set != bdd set", dstDev, src)
					}
				}
			}
		})
	}
}

func TestTransformsRejected(t *testing.T) {
	net := testnet.Line3()
	r2 := net.Devices["r2"]
	r2.NATRules = []config.NATRule{{
		Kind: config.SourceNAT, PoolLo: 100 << 24, PoolHi: 100 << 24,
	}}
	dp := dataplane.Run(net, dataplane.Options{})
	g := fwdgraph.New(dp)
	if _, err := New(g); err != ErrTransformsUnsupported {
		t.Errorf("expected ErrTransformsUnsupported, got %v", err)
	}
}

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	b.set(0)
	b.set(129)
	if !b.has(0) || !b.has(129) || b.has(64) {
		t.Error("set/has wrong")
	}
	if b.Count() != 2 {
		t.Errorf("count = %d", b.Count())
	}
	o := newBitset(130)
	o.set(64)
	if !b.Or(o) || !b.has(64) {
		t.Error("Or wrong")
	}
	if b.Or(o) {
		t.Error("second Or should not change")
	}
	dst := newBitset(130)
	if !b.AndInto(o, dst) || dst.Count() != 1 || !dst.has(64) {
		t.Error("AndInto wrong")
	}
}
