package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/topo"
)

// fullCompare is CompareWith before it diffed only the headers an edit can
// change: every source's sink sets over all headers, from the full
// backward passes of fresh analyses of both graphs (one forward pass per
// source on graphs with NAT).
func fullCompare(t *testing.T, s, after *Snapshot) []DifferentialFlows {
	t.Helper()
	g1, g2 := s.Graph(), after.Graph()
	if g1.Enc != g2.Enc {
		t.Fatal("snapshots on different encoders")
	}
	ctx := context.Background()
	a1, a2 := reach.New(g1), reach.New(g2)
	ap1, _ := a1.AllPairs(ctx)
	ap2, _ := a2.AllPairs(ctx)
	return diffFlows(ctx, a1, a2, ap1, ap2, bdd.True)
}

// withDenyACL gives every device of texts an inbound filter DT on its
// first link interface (the generators name them Gi*, up* and down*), so
// the draws have ACL bodies and bindings to edit.
func withDenyACL(texts map[string]string) map[string]string {
	out := make(map[string]string, len(texts))
	for name, text := range texts {
		i := strings.Index(text, "interface Gi")
		if j := strings.Index(text, "interface up"); i < 0 || (j >= 0 && j < i) {
			i = j
		}
		if j := strings.Index(text, "interface down"); i < 0 || (j >= 0 && j < i) {
			i = j
		}
		if i < 0 {
			out[name] = text
			continue
		}
		nl := i + strings.IndexByte(text[i:], '\n') + 1
		text = text[:nl] + " ip access-group DT in\n" + text[nl:]
		out[name] = appendLines(text, "ip access-list extended DT\n deny tcp any any eq 23\n permit ip any any")
	}
	return out
}

// appendLines adds top-level configuration lines at the end of text,
// before its "end" when it has one.
func appendLines(text, lines string) string {
	body, hasEnd := strings.CutSuffix(text, "end\n")
	if hasEnd {
		return body + lines + "\nend\n"
	}
	return text + lines + "\n"
}

// deltaDraw is one drawn change: a scenario and what kind of edit it is.
type deltaDraw struct {
	kind string
	sc   Scenario
}

// drawDelta draws a change of the given kind on base, or ok=false when
// the network has nothing of that kind to change.
func drawDelta(t *testing.T, rnd *rand.Rand, base *Snapshot, texts map[string]string, kind string) (Scenario, bool) {
	net := base.Net
	names := net.DeviceNames()
	devs := names
	if strings.HasPrefix(kind, "acl-") {
		devs = nil
		for _, n := range names {
			if strings.Contains(texts[n], "ip access-list") {
				devs = append(devs, n)
			}
		}
	}
	dev := devs[rnd.Intn(len(devs))]
	d := net.Devices[dev]
	text := texts[dev]
	edit := func(newText string) (Scenario, bool) {
		return Scenario{ConfigEdits: map[string]string{dev: newText}}, newText != text
	}
	// lans are the interfaces of the network with room for another host.
	type lan struct {
		dev, iface string
		p          ip4.Prefix
	}
	var lans []lan
	for _, n := range names {
		for _, in := range net.Devices[n].InterfaceNames() {
			if p, ok := net.Devices[n].Interfaces[in].Primary(); ok && p.Len <= 29 {
				lans = append(lans, lan{n, in, p})
			}
		}
	}
	route := func(nh string) string {
		l := lans[rnd.Intn(len(lans))]
		half := ip4.Prefix{Addr: l.p.First() + ip4.Addr(rnd.Intn(2))<<(31-l.p.Len), Len: l.p.Len + 1}
		return fmt.Sprintf("ip route %s %s %s", half.First(), ip4.Mask(half.Len), nh)
	}
	dp := base.DataPlane()
	switch kind {
	case "static":
		var nhs []string
		for _, in := range d.InterfaceNames() {
			for _, e := range dp.Topology.EdgesFrom(dev, in) {
				if p, ok := net.Devices[e.Node2].Interfaces[e.Iface2].Primary(); ok {
					nhs = append(nhs, p.Addr.String())
				}
			}
		}
		if len(nhs) == 0 {
			return Scenario{}, false
		}
		return edit(appendLines(text, route(nhs[rnd.Intn(len(nhs))])))
	case "null":
		return edit(appendLines(text, route("Null0")))
	case "acl-body":
		if strings.Contains(text, "HTTP_OUT") {
			return edit(httpsOnly(text))
		}
		l := lans[rnd.Intn(len(lans))]
		return edit(strings.Replace(text, " deny tcp any any eq 23\n",
			fmt.Sprintf(" deny ip any %s %s\n", l.p.First(), ^ip4.Mask(l.p.Len)), 1))
	case "acl-binding":
		if strings.Contains(text, "zone-member security outside") && rnd.Intn(2) == 0 {
			// Move the outside interface into the inside zone: its edges
			// keep their labels and change only the zone they record.
			return edit(strings.Replace(text, "zone-member security outside", "zone-member security inside", 1))
		}
		if strings.Contains(text, " ip access-group DT in\n") && rnd.Intn(2) == 0 {
			return edit(strings.Replace(text, " ip access-group DT in\n", "", 1))
		}
		ins := d.InterfaceNames()
		in := ins[rnd.Intn(len(ins))]
		acl := "DT"
		if !strings.Contains(text, "access-list extended DT") {
			acl = "HTTP_OUT"
		}
		header := "interface " + in + "\n"
		return edit(strings.Replace(text, header, header+" ip access-group "+acl+" out\n", 1))
	case "address":
		var mine []lan
		for _, l := range lans {
			if l.dev == dev {
				mine = append(mine, l)
			}
		}
		if len(mine) == 0 {
			return Scenario{}, false
		}
		l := mine[rnd.Intn(len(mine))]
		moved := l.p.First() + ip4.Addr(2+rnd.Intn(int(^ip4.Mask(l.p.Len))-2))
		old := fmt.Sprintf(" ip address %s %s\n", l.p.Addr, ip4.Mask(l.p.Len))
		return edit(strings.Replace(text, old, fmt.Sprintf(" ip address %s %s\n", moved, ip4.Mask(l.p.Len)), 1))
	case "failure":
		if rnd.Intn(2) == 0 {
			return Scenario{NodesDown: []string{dev}}, true
		}
		var links []topo.Link
		for _, e := range dp.Topology.Neighbors(dev) {
			links = append(links, e.Link())
		}
		if len(links) == 0 {
			return Scenario{}, false
		}
		return Scenario{LinksDown: []topo.Link{links[rnd.Intn(len(links))]}}, true
	case "noop":
		return edit(appendLines(text, "!"))
	}
	t.Fatalf("unknown draw kind %q", kind)
	return Scenario{}, false
}

// TestCompareDeltaMatchesFull: CompareWith, which diffs only the headers
// inside the graphs' Delta and reads the candidate's passes restricted to
// them, equals the full compare on the same factory, down to the Refs and
// the witnesses. Each network is edited on one caching pipeline with a
// warm base; every draw is compared base→candidate (restricted passes),
// base→candidate under a node budget (one forward pass per source, over
// Delta) and candidate→base. The draws cover static and null routes, ACL
// bodies and bindings (zone membership on the firewall), interface
// addresses, link and node failures and a no-op edit.
func TestCompareDeltaMatchesFull(t *testing.T) {
	nets := []struct {
		name   string
		texts  map[string]string
		rounds int // draws of each kind; the firewall's edits of its own fw need more
	}{
		{"mesh", withDenyACL(textsOf(netgen.Random(netgen.RandomParams{Name: "dm", Nodes: 12, Degree: 3, LansPerNode: 1, Seed: 5}))), 3},
		{"fabric", withDenyACL(fabricTexts(t, "df")), 3},
		{"firewall", firewallTexts(false), 8},
	}
	kinds := []string{"static", "null", "acl-body", "acl-binding", "address", "failure", "noop"}
	var restricted, empty, rows int
	for ni, n := range nets {
		t.Run(n.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(ni + 1)))
			base := LoadTextWith(pipeline.New(pipeline.Config{}), n.texts)
			if len(base.Reachability(ReachabilityParams{})) == 0 || base.Degraded() {
				t.Fatalf("base: no flows or degraded: %v", base.Diags())
			}
			var draws []deltaDraw
			for round := 0; round < n.rounds; round++ {
				for _, kind := range kinds {
					if sc, ok := drawDelta(t, rnd, base, n.texts, kind); ok {
						draws = append(draws, deltaDraw{kind, sc})
					}
				}
			}
			for i, dr := range draws {
				after := base.Apply(dr.sc)
				h := fwdgraph.Delta(base.Graph(), after.Graph())
				got := base.CompareWith(after)
				if after.Degraded() || base.Degraded() {
					t.Fatalf("draw %d (%s): degraded: %v %v", i, dr.kind, base.Diags(), after.Diags())
				}
				want := fullCompare(t, base, after)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("draw %d (%s, %s): CompareWith gave %d rows, the full compare %d, or they differ",
						i, dr.kind, dr.sc.ID(), len(got), len(want))
				}
				if dr.kind == "noop" && (h != bdd.False || len(got) != 0) {
					t.Errorf("draw %d: no-op edit has Delta %d and %d rows", i, h, len(got))
				}
				switch h {
				case bdd.False:
					empty++
				case bdd.True:
				default:
					restricted++
				}
				rows += len(got)

				after.SetBDDNodeBudget(1 << 30)
				budgeted := base.CompareWith(after)
				after.SetBDDNodeBudget(0)
				if !reflect.DeepEqual(budgeted, want) {
					t.Fatalf("draw %d (%s): the per-source compare under a budget differs from the full compare", i, dr.kind)
				}
				if back := after.CompareWith(base); !reflect.DeepEqual(back, fullCompare(t, after, base)) {
					t.Fatalf("draw %d (%s): candidate→base compare differs from the full compare", i, dr.kind)
				}
			}
		})
	}
	t.Logf("%d draws diffed within a strict Delta, %d with an empty one; %d diff rows", restricted, empty, rows)
	if restricted == 0 || rows == 0 {
		t.Errorf("the draws never restricted a compare (%d) or never found a difference (%d rows)", restricted, rows)
	}
}
