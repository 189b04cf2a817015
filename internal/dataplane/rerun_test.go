package dataplane_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/topo"
)

// TestRunFromMatchesCold is the differential check of RunFrom. Each draw
// picks a base — the network's unscoped, unmasked run, that run after a
// MarshalResult/UnmarshalResult round trip, or the previous draw's
// result — and a target: the network or an edit of it (an origination
// edit, a changed interface address or a shut interface), under a random
// scope and a k≤2 link or node failure, or neither. RunFrom from the base
// must marshal to exactly the bytes of a cold RunContext of the target.
func TestRunFromMatchesCold(t *testing.T) {
	nets := []struct {
		name  string
		gen   func() *netgen.Snapshot
		draws int
	}{
		{"recursive", recursiveNet, 30},
		{"wan", func() *netgen.Snapshot {
			return netgen.WAN(netgen.WANParams{Name: "wan", Nodes: 12, CoreMesh: 4, TransitPeers: 3, Chords: 3})
		}, 10},
		{"mesh", func() *netgen.Snapshot {
			return netgen.Random(netgen.RandomParams{Name: "m1", Nodes: 16, Degree: 3, LansPerNode: 2, Seed: 1})
		}, 10},
		{"fabric", fabricNet, 10},
		{"NET1", func() *netgen.Snapshot { return catalogNet("NET1") }, 4},
		{"NET2", func() *netgen.Snapshot { return catalogNet("NET2") }, 4},
		{"NET3", func() *netgen.Snapshot { return catalogNet("NET3") }, 3},
		{"NET4", func() *netgen.Snapshot { return catalogNet("NET4") }, 2},
		{"NET5", func() *netgen.Snapshot { return catalogNet("NET5") }, 2},
	}
	for i, c := range nets {
		t.Run(c.name, func(t *testing.T) {
			draws := c.draws
			if testing.Short() {
				draws = (draws + 2) / 3
			}
			checkRunFromDraws(t, c.gen(), int64(i+1), draws)
		})
	}
}

func checkRunFromDraws(t *testing.T, snap *netgen.Snapshot, seed int64, draws int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := core.LoadGeneratedWith(pipeline.Disabled(), snap).Net
	root := dataplane.Run(net, dataplane.Options{})
	if root.Degraded() {
		t.Fatalf("base run degraded: %v", root.Diags)
	}
	rootBytes := marshal(t, root)
	decoded := roundTrip(t, root)
	deps := dependencyAddrs(root)
	cands := scopeCandidates(net)
	links := root.Topology.Links()
	names := net.DeviceNames()
	prev := root
	for d := 0; d < draws; d++ {
		base, baseDesc := root, "root"
		switch rng.Intn(3) {
		case 1:
			base, baseDesc = decoded, "decoded root"
		case 2:
			base, baseDesc = prev, "previous draw"
		}
		ed := edit{net: net, desc: "no edit"}
		switch rng.Intn(4) {
		case 1:
			ed = drawEdit(rng, net, root, deps, cands)
		case 2, 3:
			ed = drawInterfaceEdit(rng, net, rng.Intn(2) == 0)
		}
		target := ed.net
		var opts dataplane.Options
		if rng.Intn(3) > 0 {
			opts.Scope = drawScope(rng, cands)
		}
		opts.Suppress = drawSuppression(rng, links, names)
		label := fmt.Sprintf("draw %d: base %s; %s; scope %v; suppress %q", d, baseDesc, ed.desc, opts.Scope, opts.Suppress.CacheKey())
		cold := dataplane.RunContext(context.Background(), target, opts)
		got := dataplane.RunFrom(context.Background(), base, target, opts)
		if cold.Degraded() {
			t.Logf("%s: cold run degraded, nothing to compare", label)
			continue
		}
		if !bytes.Equal(marshal(t, got), marshal(t, cold)) {
			t.Errorf("%s: RunFrom's artifact differs from the cold run's", label)
		}
		prev = got
	}
	if !bytes.Equal(marshal(t, root), rootBytes) {
		t.Error("RunFrom changed its base")
	}
}

func marshal(t *testing.T, r *dataplane.Result) []byte {
	t.Helper()
	b, err := dataplane.MarshalResult(r)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	return b
}

// drawSuppression draws a failure of one or two links or nodes, or none.
func drawSuppression(rng *rand.Rand, links []topo.Link, names []string) dataplane.Suppression {
	var s dataplane.Suppression
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 && len(links) > 0 {
			s.Links = append(s.Links, links[rng.Intn(len(links))])
		} else {
			s.Nodes = append(s.Nodes, names[rng.Intn(len(names))])
		}
	}
	return s
}

// drawInterfaceEdit changes one interface of a random device: shuts it
// down, or moves its first address within its subnet or to a fresh one.
func drawInterfaceEdit(rng *rand.Rand, net *config.Network, shut bool) edit {
	names := net.DeviceNames()
	name := names[rng.Intn(len(names))]
	d := net.Devices[name]
	var ifaces []string
	for _, in := range d.InterfaceNames() {
		if i := d.Interfaces[in]; i.Active && len(i.Addresses) > 0 {
			ifaces = append(ifaces, in)
		}
	}
	if len(ifaces) == 0 {
		return edit{net: net, desc: "no edit"}
	}
	in := ifaces[rng.Intn(len(ifaces))]
	ni := *d.Interfaces[in]
	if shut {
		ni.Active = false
		return editInterface(net, name, in, &ni, fmt.Sprintf("%s shutdown %s", name, in))
	}
	p := ni.Addresses[0]
	if rng.Intn(2) == 0 && p.Len < 30 {
		p.Addr = p.First() + ip4.Addr(1+rng.Intn(int(p.Last()-p.First())-1))
	} else {
		p = ip4.Prefix{Addr: ip4.Addr(198<<24 | 51<<16 | uint32(rng.Intn(256))<<8 | 1), Len: 24}
	}
	ni.Addresses = append([]ip4.Prefix{p}, ni.Addresses[1:]...)
	return editInterface(net, name, in, &ni, fmt.Sprintf("%s %s address %v -> %v", name, in, d.Interfaces[in].Addresses[0].Addr, p.Addr))
}

// TestRunFromSharesConnectedState pins what a re-run takes from its base.
// After a k=1 failure class and after an edit, every live device the run
// shares with its base holds the base's ConnRIB pointers, an edited
// device holds fresh ones, and a base that quarantined a device shares
// nothing connected.
func TestRunFromSharesConnectedState(t *testing.T) {
	snap := fabricNet()
	pl := pipeline.Disabled()
	base := core.LoadGeneratedWith(pl, snap)
	bdp := base.DataPlane()
	links := bdp.Topology.Links()
	names := base.Net.DeviceNames()

	check := func(label string, got *dataplane.Result, fresh map[string]bool) {
		t.Helper()
		if got.Degraded() {
			t.Fatalf("%s: degraded: %v", label, got.Diags)
		}
		for name, ns := range got.Nodes {
			for vn, vs := range ns.VRFs {
				if _, configured := ns.Device.VRFs[vn]; !configured {
					continue
				}
				bvs := bdp.Nodes[name].VRFs[vn]
				if shared := vs.ConnRIB == bvs.ConnRIB; shared == fresh[name] {
					t.Errorf("%s: %s/%s ConnRIB shared with the base: %v", label, name, vn, shared)
				}
			}
		}
	}

	class := base.Apply(core.Scenario{LinksDown: links[:1]}).DataPlane()
	check("link class", class, nil)
	node := base.Apply(core.Scenario{NodesDown: names[:1]}).DataPlane()
	if _, ok := node.Nodes[names[0]]; ok {
		t.Fatalf("node class still runs %s", names[0])
	}
	check("node class", node, nil)

	ed := drawInterfaceEdit(rand.New(rand.NewSource(1)), base.Net, false)
	var dev string
	for name, d := range ed.net.Devices {
		if d != base.Net.Devices[name] {
			dev = name
		}
	}
	if dev == "" {
		t.Fatalf("no device edited (%s)", ed.desc)
	}
	check(ed.desc, dataplane.RunFrom(context.Background(), bdp, ed.net, dataplane.Options{}), map[string]bool{dev: true})

	// Update builds its scoped engine through the same path: the edited
	// ToR's state is spliced with a fresh ConnRIB, every other node keeps
	// the base's.
	const tor = "f-p01-tor01"
	d := *base.Net.Devices[tor]
	d.VRFs = maps.Clone(d.VRFs)
	v := *d.VRFs[config.DefaultVRF]
	v.StaticRoutes = append(slices.Clone(v.StaticRoutes), config.StaticRoute{
		Prefix: ip4.MustParsePrefix("198.18.7.0/24"), Drop: true})
	d.VRFs[config.DefaultVRF] = &v
	orig := &config.Network{Devices: maps.Clone(base.Net.Devices), Warnings: base.Net.Warnings}
	orig.Devices[tor] = &d
	up, ok := dataplane.Update(context.Background(), bdp, orig, dataplane.Options{})
	if !ok {
		t.Fatal("Update fell back on an unused /24")
	}
	check("origination edit", up, map[string]bool{tor: true})

	faulted := names[len(names)/2]
	restore := faults.Activate(faults.New().Enable("fib", faulted, faults.Rule{Kind: faults.Panic, Count: 1}))
	qbase := dataplane.Run(base.Net, dataplane.Options{})
	restore()
	if !slices.Contains(qbase.Quarantined, faulted) {
		t.Fatalf("base did not quarantine %s: %v", faulted, qbase.Quarantined)
	}
	re := dataplane.RunFrom(context.Background(), qbase, base.Net, dataplane.Options{})
	for name, ns := range re.Nodes {
		for vn, vs := range ns.VRFs {
			if bvs := qbase.Nodes[name].VRFs[vn]; vs.ConnRIB == bvs.ConnRIB {
				t.Errorf("run from a quarantining base shares %s/%s's ConnRIB", name, vn)
			}
		}
	}
	if !bytes.Equal(marshal(t, re), marshal(t, dataplane.Run(base.Net, dataplane.Options{}))) {
		t.Error("run from a quarantining base differs from a cold run")
	}
}

// TestRunFromConcurrent re-runs scoped failure classes from one base on
// several goroutines at once, as concurrent questions against one cached
// base do; under -race it pins that shared connected state is only read.
// Each run must marshal to its cold run's bytes.
func TestRunFromConcurrent(t *testing.T) {
	net := core.LoadGeneratedWith(pipeline.Disabled(), fabricNet()).Net
	base := dataplane.Run(net, dataplane.Options{Parallelism: 1})
	links := base.Topology.Links()
	scope := scopeCandidates(net)[:2]
	const runs = 4
	want := make([][]byte, runs)
	opts := make([]dataplane.Options, runs)
	for i := range opts {
		opts[i] = dataplane.Options{Parallelism: 1, Scope: scope,
			Suppress: dataplane.Suppression{Links: links[i : i+1]}}
		want[i] = marshal(t, dataplane.Run(net, opts[i]))
	}
	got := make([]*dataplane.Result, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = dataplane.RunFrom(context.Background(), base, net, opts[i])
		}()
	}
	wg.Wait()
	for i, r := range got {
		if !bytes.Equal(marshal(t, r), want[i]) {
			t.Errorf("run %d (link %v) differs from its cold run", i, links[i])
		}
	}
}
