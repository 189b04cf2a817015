package fwdgraph

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/testnet"
)

func converged(t *testing.T, net *config.Network) *dataplane.Result {
	t.Helper()
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		t.Fatalf("dataplane did not converge: %v", dp.Warnings)
	}
	return dp
}

// dump renders a graph for golden comparison: the String summary, every
// node in id order, and every edge in construction order. BDDs appear as
// model counts rather than Refs, so the file pins what each edge admits
// and produces, not how the BDD library happens to number its nodes.
// An edge that rewrites packets also shows the image of the packets
// sourced in 10.0.0.0/8, where every test network is addressed: a NAT
// maps them onto its pool, which the image of all packets would hide
// behind the untranslated identity.
func dump(g *Graph) string {
	f := g.Enc.F
	count := func(r bdd.Ref) string { return fmt.Sprintf("%.9g", f.SatCount(r)) }
	probe := g.Enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.0.0.0/8"))
	var b strings.Builder
	fmt.Fprintln(&b, g.String())
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "node %d %s\n", n.ID, n.Name)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		fmt.Fprintf(&b, "edge %s -> %s label=%s", g.Nodes[e.From].Name, g.Nodes[e.To].Name, count(e.Label))
		if e.Raw != bdd.False {
			fmt.Fprintf(&b, " raw=%s", count(e.Raw))
		}
		if e.Tr != nil {
			b.WriteString(" nat")
		}
		if e.ZoneSet != nil {
			fmt.Fprintf(&b, " zone=%d", *e.ZoneSet)
		}
		if e.ClearZone {
			b.WriteString(" clear-zone")
		}
		if len(e.SetBits) > 0 {
			fmt.Fprintf(&b, " bits=%v", e.SetBits)
		}
		if e.Tr != nil || e.ZoneSet != nil || e.ClearZone || len(e.SetBits) > 0 {
			fmt.Fprintf(&b, " out=%s", count(e.Apply(g.Enc, probe)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenGraphs pins graph construction for the paper's Figure 2
// network, the zone firewall, and the firewall with source NAT on its
// outside interface, so the golden file covers transformation edges as
// well as zone edges.
func TestGoldenGraphs(t *testing.T) {
	cases := []struct {
		name string
		net  *config.Network
	}{
		{"figure2", testnet.Figure2()},
		{"firewall", testnet.Firewall()},
		{"firewall-nat", testnet.FirewallNAT()},
	}
	var got strings.Builder
	for _, tc := range cases {
		g := New(converged(t, tc.net))
		if g.Cancelled {
			t.Fatalf("%s: uncancelled build reported Cancelled", tc.name)
		}
		fmt.Fprintf(&got, "== %s ==\n%s", tc.name, dump(g))
	}
	want, err := os.ReadFile("testdata/graphs.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
				break
			}
		}
		t.Fatalf("graph dump differs from testdata/graphs.golden; full dump:\n%s", got.String())
	}
}

// expireAfter is a context whose Err turns non-nil after n calls, so a
// build can be cancelled between devices deterministically.
type expireAfter struct {
	context.Context
	n int
}

func (c *expireAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestNewContextCancelled checks that a cancelled build returns a graph
// flagged Cancelled whose adjacency index covers exactly the nodes and
// edges it did build, both when cancelled up front and between devices.
func TestNewContextCancelled(t *testing.T) {
	dp := converged(t, testnet.Figure2())
	full := New(dp)

	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		devices int
	}{
		{"before-first-device", done, 0},
		{"after-first-device", &expireAfter{Context: context.Background(), n: 1}, 1},
	} {
		g := NewContext(tc.ctx, dp)
		if !g.Cancelled {
			t.Fatalf("%s: Cancelled not set", tc.name)
		}
		// Only built devices get a FIB node; neighbors they deliver to
		// appear through their ingress nodes alone.
		var built []string
		for _, n := range g.Nodes {
			if n.Kind == KindFwd {
				built = append(built, n.Node_)
			}
		}
		if len(built) != tc.devices || len(g.Nodes) >= len(full.Nodes) {
			t.Fatalf("%s: built %d nodes, FIBs for %v; want a prefix of %d device(s)",
				tc.name, len(g.Nodes), built, tc.devices)
		}
		if len(g.Out) != len(g.Nodes) || len(g.In) != len(g.Nodes) {
			t.Fatalf("%s: index sized %d/%d for %d nodes", tc.name, len(g.Out), len(g.In), len(g.Nodes))
		}
		seen := 0
		for id := range g.Nodes {
			for _, ei := range g.Out[id] {
				if g.Edges[ei].From != id {
					t.Fatalf("%s: Out[%d] lists edge %d from %d", tc.name, id, ei, g.Edges[ei].From)
				}
				seen++
			}
			for _, ei := range g.In[id] {
				if g.Edges[ei].To != id {
					t.Fatalf("%s: In[%d] lists edge %d to %d", tc.name, id, ei, g.Edges[ei].To)
				}
			}
		}
		if seen != len(g.Edges) {
			t.Fatalf("%s: Out indexes %d of %d edges", tc.name, seen, len(g.Edges))
		}
	}
}
