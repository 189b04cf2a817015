package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/fwdgraph"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/topo"
)

// fabricTexts renders a small Clos fabric as hostname → config text.
func fabricTexts(t testing.TB, name string) map[string]string {
	gen := netgen.Fabric(netgen.FabricParams{Name: name, Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	return texts
}

// addRoute inserts a static route before the trailing "end" so the parser
// sees it inside the config body.
func addRoute(t testing.TB, text, route string) string {
	t.Helper()
	if !strings.HasSuffix(text, "end\n") {
		t.Fatal("config text does not end with 'end'")
	}
	return strings.TrimSuffix(text, "end\n") + route + "\nend\n"
}

func tracesOf(fr FlowResult) string {
	var b strings.Builder
	for _, tr := range fr.Traces {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestIncrementalEquivalence is the acceptance check for the edit loop:
// after editing one ToR (null-routing half of another ToR's host subnet,
// which breaks delivered flows), the edited snapshot of a warm caching
// pipeline must produce byte-identical Fingerprint, Reachability, and
// CompareWith outputs to (a) a full same-pipeline load of the merged
// texts — compared down to the BDD refs, which are canonical within one
// encoder — and (b) a fresh run with caching disabled, compared on every
// derived value.
func TestIncrementalEquivalence(t *testing.T) {
	baseTexts := fabricTexts(t, "eq")
	const editedTor = "eq-p02-tor02"
	if _, ok := baseTexts[editedTor]; !ok {
		t.Fatalf("no device %s in %v", editedTor, len(baseTexts))
	}
	// The first ToR's host net is 10.0.0.0/24; blackholing its lower half
	// on another pod's ToR breaks delivered flows from that ToR's hosts.
	afterTexts := make(map[string]string, len(baseTexts))
	for k, v := range baseTexts {
		afterTexts[k] = v
	}
	afterTexts[editedTor] = addRoute(t, baseTexts[editedTor],
		"ip route 10.0.0.0 255.255.255.128 Null0")

	// Cached pipeline: load, warm the baseline, then edit.
	pl := pipeline.New(pipeline.Config{})
	base := LoadTextWith(pl, baseTexts)
	baseFlows := base.Reachability(ReachabilityParams{})
	if len(baseFlows) == 0 {
		t.Fatal("no host-facing flows in baseline")
	}
	after := base.Edit(map[string]string{editedTor: afterTexts[editedTor]})
	updates := pl.Stats().DataPlane.Updates
	incFlows := after.Reachability(ReachabilityParams{})
	// The edit adds one static route, so its data plane must come from
	// dataplane.Update rather than a cold run.
	if got := pl.Stats().DataPlane.Updates - updates; got != 1 {
		t.Fatalf("edited data plane: %d updates, want 1 (the update path must run)", got)
	}
	incDiffs := base.CompareWith(after)
	if len(incDiffs) == 0 {
		t.Fatal("blackholing a served subnet must break flows")
	}

	// (a) Full recomputation on the same pipeline: identical BDD refs.
	full := LoadTextWith(pl, afterTexts)
	fullFlows := full.Reachability(ReachabilityParams{})
	if len(incFlows) != len(fullFlows) {
		t.Fatalf("flow count: edited %d vs full %d", len(incFlows), len(fullFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], fullFlows[i]
		if a.Source != b.Source {
			t.Fatalf("flow %d source %v vs %v", i, a.Source, b.Source)
		}
		if a.Delivered != b.Delivered || a.Failed != b.Failed {
			t.Errorf("%v: sets differ (delivered %v vs %v, failed %v vs %v)",
				a.Source, a.Delivered, b.Delivered, a.Failed, b.Failed)
		}
		if a.HasPositive != b.HasPositive || a.PositiveExample != b.PositiveExample {
			t.Errorf("%v: positive example differs", a.Source)
		}
		if a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: negative example differs", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ:\n%s\nvs\n%s", a.Source, tracesOf(a), tracesOf(b))
		}
	}
	fullDiffs := base.CompareWith(full)
	if len(incDiffs) != len(fullDiffs) {
		t.Fatalf("diff rows: edited %d vs full %d", len(incDiffs), len(fullDiffs))
	}
	for i := range incDiffs {
		a, b := incDiffs[i], fullDiffs[i]
		if a.Source != b.Source || a.Broken != b.Broken || a.NewlyArrive != b.NewlyArrive ||
			a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("diff row %d differs: %+v vs %+v", i, a, b)
		}
	}

	// (b) Caching disabled entirely: every derived value must match.
	refBase := LoadTextWith(pipeline.Disabled(), baseTexts)
	refAfter := LoadTextWith(pipeline.Disabled(), afterTexts)
	if got, want := after.DataPlane().Fingerprint(), refAfter.DataPlane().Fingerprint(); got != want {
		t.Errorf("after fingerprint %x != reference %x", got, want)
	}
	if got, want := base.DataPlane().Fingerprint(), refBase.DataPlane().Fingerprint(); got != want {
		t.Errorf("base fingerprint %x != reference %x", got, want)
	}
	refFlows := refAfter.Reachability(ReachabilityParams{})
	if len(refFlows) != len(incFlows) {
		t.Fatalf("flow count vs disabled reference: %d vs %d", len(incFlows), len(refFlows))
	}
	for i := range incFlows {
		a, b := incFlows[i], refFlows[i]
		if a.Source != b.Source || a.HasPositive != b.HasPositive ||
			a.PositiveExample != b.PositiveExample ||
			a.HasNegative != b.HasNegative || a.NegativeExample != b.NegativeExample {
			t.Errorf("%v: differs from cache-disabled reference", a.Source)
		}
		if tracesOf(a) != tracesOf(b) {
			t.Errorf("%v: traces differ from cache-disabled reference", a.Source)
		}
	}
	refDiffs := refBase.CompareWith(refAfter)
	if len(refDiffs) != len(incDiffs) {
		t.Fatalf("diff rows vs disabled reference: %d vs %d", len(incDiffs), len(refDiffs))
	}
	for i := range incDiffs {
		a, b := incDiffs[i], refDiffs[i]
		if a.Source != b.Source || a.HasBroken != b.HasBroken || a.BrokenEx != b.BrokenEx {
			t.Errorf("diff row %d differs from cache-disabled reference: %+v vs %+v", i, a, b)
		}
	}
}

// TestEditSemantics covers the overlay rules of Snapshot.Edit: replaced
// texts re-parse, untouched devices share the cached model, and an empty
// string removes the device.
func TestEditSemantics(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	texts := fabricTexts(t, "ed")
	s := LoadTextWith(pl, texts)
	const tor = "ed-p01-tor01"
	after := s.Edit(map[string]string{tor: addRoute(t, texts[tor],
		"ip route 203.0.113.0 255.255.255.0 Null0")})
	if after.Pipeline() != pl {
		t.Fatal("Edit must keep the pipeline")
	}
	if after.Net.Devices[tor] == s.Net.Devices[tor] {
		t.Error("edited device model must be re-parsed")
	}
	for name := range s.Net.Devices {
		if name == tor {
			continue
		}
		if after.Net.Devices[name] != s.Net.Devices[name] {
			t.Errorf("unchanged device %s was re-parsed", name)
		}
	}
	removed := s.Edit(map[string]string{tor: ""})
	if _, ok := removed.Net.Devices[tor]; ok {
		t.Error("empty-string edit must remove the device")
	}
	if len(removed.Net.Devices) != len(s.Net.Devices)-1 {
		t.Errorf("device count after removal: %d", len(removed.Net.Devices))
	}
}

// TestEditSharesUnchangedModels: an edit parses only what changed. On a
// store smaller than the device count (so the base's parse entries are
// evicted before the edit) and on Disabled() (which keeps nothing), every
// unedited device of the edited snapshot is the base's model by pointer,
// a device the base quarantined is parsed afresh, and the edited
// snapshot's network, warnings and device keys equal a fresh load's.
func TestEditSharesUnchangedModels(t *testing.T) {
	texts := fabricTexts(t, "sh")
	const tor, quarantined, warned = "sh-p02-tor02", "sh-p01-agg1", "sh-p01-tor01"
	texts[warned] = addRoute(t, texts[warned], "frobnicate the widgets")
	edit := map[string]string{tor: addRoute(t, texts[tor], "ip route 203.0.113.0 255.255.255.0 Null0")}
	after := make(map[string]string, len(texts))
	for n, tx := range texts {
		after[n] = tx
	}
	after[tor] = edit[tor]

	for _, tc := range []struct {
		name string
		pl   func() *pipeline.Pipeline
	}{
		{"store-4", func() *pipeline.Pipeline { return pipeline.New(pipeline.Config{StoreCapacity: 4}) }},
		{"disabled", pipeline.Disabled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := tc.pl()
			restore := faults.Activate(faults.New().Enable("parse", quarantined, faults.Rule{Kind: faults.Panic}))
			base := LoadTextWith(pl, texts)
			restore()
			if _, ok := base.Net.Devices[quarantined]; ok {
				t.Fatal("base did not quarantine its device")
			}
			ed := base.Edit(edit)
			if len(ed.Net.Devices) != len(texts) {
				t.Fatalf("edited snapshot has %d devices, want %d", len(ed.Net.Devices), len(texts))
			}
			for name, d := range ed.Net.Devices {
				switch name {
				case tor, quarantined:
					if d == base.Net.Devices[name] {
						t.Errorf("%s: model shared with the base, want a fresh parse", name)
					}
				default:
					if d != base.Net.Devices[name] {
						t.Errorf("unedited device %s was re-parsed", name)
					}
				}
			}
			fresh := LoadTextWith(tc.pl(), after)
			if !reflect.DeepEqual(ed.Net, fresh.Net) {
				t.Error("edited network differs from a fresh load's")
			}
			if len(fresh.Warnings) == 0 || !reflect.DeepEqual(ed.Warnings, fresh.Warnings) {
				t.Errorf("warnings %v, fresh load %v", ed.Warnings, fresh.Warnings)
			}
			if !reflect.DeepEqual(ed.devKeys, fresh.devKeys) {
				t.Error("device keys differ from a fresh load's")
			}
		})
	}
}

// TestCompareWithNoopEdit: an edit that changes bytes but not behavior
// (a comment-like no-op) produces no diff rows and an unchanged data
// plane.
func TestCompareWithNoopEdit(t *testing.T) {
	pl := pipeline.New(pipeline.Config{})
	texts := fabricTexts(t, "np")
	s := LoadTextWith(pl, texts)
	s.Reachability(ReachabilityParams{})
	const tor = "np-p01-tor02"
	after := s.Edit(map[string]string{tor: "!\n" + texts[tor]})
	if diffs := s.CompareWith(after); len(diffs) != 0 {
		t.Errorf("no-op edit produced diffs: %v", diffs)
	}
	if got, want := after.DataPlane().Fingerprint(), s.DataPlane().Fingerprint(); got != want {
		t.Errorf("no-op edit changed the fingerprint: %x vs %x", got, want)
	}
}

func TestServiceQuestionsUseMemo(t *testing.T) {
	// Repeated identical questions must hit the per-snapshot memo (the
	// second call does no BDD propagation; we just check stability).
	pl := pipeline.New(pipeline.Config{})
	s := LoadTextWith(pl, fabricTexts(t, "sm"))
	r1 := s.Reachability(ReachabilityParams{})
	r2 := s.Reachability(ReachabilityParams{})
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Error("repeated Reachability not stable")
	}
}

// TestEditUpdateFallbacks pins which edited data planes come from
// dataplane.Update and which from a cold run: only a caching pipeline, a
// clean unscoped base, an origination-only edit whose prefixes hold no
// address of the dependency set D and an unchanged failure overlay take
// the update path. Every row's data plane must equal a cold run of the
// same network under the same options, whichever path computed it.
func TestEditUpdateFallbacks(t *testing.T) {
	texts := fabricTexts(t, "fb")
	const tor = "fb-p01-tor01"
	nullRoute := addRoute(t, texts[tor], "ip route 198.51.100.0 255.255.255.0 Null0")
	link := func(s *Snapshot) topo.Link { return s.DataPlane().Topology.Links()[0] }
	// edit loads a warm base on pl, lets prep adjust it, and applies sc
	// built from it.
	edit := func(pl *pipeline.Pipeline, prep func(*Snapshot) *Snapshot, sc func(*Snapshot) Scenario) *Snapshot {
		base := LoadTextWith(pl, texts)
		if prep != nil {
			base = prep(base)
		}
		base.DataPlane()
		return base.Apply(sc(base))
	}
	static := func(text string) func(*Snapshot) Scenario {
		return func(*Snapshot) Scenario { return Scenario{ConfigEdits: map[string]string{tor: text}} }
	}
	for _, tc := range []struct {
		name string
		pl   func() *pipeline.Pipeline
		prep func(*Snapshot) *Snapshot
		sc   func(*Snapshot) Scenario
		want bool
	}{
		{name: "static edit", sc: static(nullRoute), want: true},
		{name: "static edit on a suppressed base", want: true,
			prep: func(s *Snapshot) *Snapshot { return s.Apply(Scenario{LinksDown: []topo.Link{link(s)}}) },
			sc:   static(nullRoute)},
		{name: "acl edit", sc: static(addRoute(t, texts[tor], "ip access-list extended X\n permit ip any any"))},
		{name: "route-map edit", sc: static(addRoute(t, texts[tor], "route-map RM permit 10\n set metric 5"))},
		{name: "comment-only edit", sc: static("!\n" + texts[tor])},
		{name: "static over a session endpoint", sc: func(s *Snapshot) Scenario {
			peer := s.Net.Devices[tor].VRFs["default"].BGP.Neighbors[0].PeerIP
			return static(addRoute(t, texts[tor], fmt.Sprintf("ip route %s 255.255.255.255 Null0", peer)))(s)
		}},
		{name: "degraded base", sc: static(nullRoute), prep: func(s *Snapshot) *Snapshot {
			s.SetDataPlaneOptions(dataplane.Options{MaxIterations: 1})
			return s
		}},
		{name: "scoped base", sc: static(nullRoute), prep: func(s *Snapshot) *Snapshot {
			s.SetDataPlaneOptions(dataplane.Options{Scope: dataplane.Scope{ip4.MustParsePrefix("198.51.100.0/24")}})
			return s
		}},
		{name: "suppression change", sc: func(s *Snapshot) Scenario {
			sc := static(nullRoute)(s)
			sc.LinksDown = []topo.Link{link(s)}
			return sc
		}},
		{name: "disabled pipeline", pl: pipeline.Disabled, sc: static(nullRoute)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := pipeline.New(pipeline.Config{})
			if tc.pl != nil {
				pl = tc.pl()
			}
			after := edit(pl, tc.prep, tc.sc)
			before := pl.Stats().DataPlane.Updates
			dp := after.DataPlane()
			if got := pl.Stats().DataPlane.Updates - before; got != map[bool]int64{true: 1}[tc.want] {
				t.Errorf("%d updates, want update path %v", got, tc.want)
			}
			cold := dataplane.Run(after.Net, after.DataPlaneOptions())
			if dp.Fingerprint() != cold.Fingerprint() || dp.Converged != cold.Converged {
				t.Errorf("data plane %x (converged %v), cold %x (converged %v)",
					dp.Fingerprint(), dp.Converged, cold.Fingerprint(), cold.Converged)
			}
		})
	}
	// Update itself refuses a base computed under another failure overlay,
	// which Apply never hands it.
	base := LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	after := base.Edit(map[string]string{tor: nullRoute})
	sup := dataplane.Suppression{Links: []topo.Link{link(base)}}
	if _, ok := dataplane.Update(context.Background(), base.DataPlane(), after.Net, dataplane.Options{Suppress: sup}); ok {
		t.Error("Update ran across a failure-overlay change")
	}
}

// TestGraphUpdateFallbacks pins which graphs fwdgraph.Update stitches
// from the graph of the snapshot they were derived from, counted by
// Stats().Graph.Updates: a config edit and link and node failures on a
// caching pipeline, and a failure (a sweep worker's class) and a config
// edit, whose unedited devices keep the base's parsed models, on a
// Disabled() one. A derived snapshot without a base graph, and one whose
// base graph is on another encoder or was cancelled, build cold. Every
// graph must equal a cold build of its data plane on the same factory,
// node for node and edge for edge, with Ref-equal labels. A cancelled
// build gives a partial graph with a zero key.
func TestGraphUpdateFallbacks(t *testing.T) {
	texts := fabricTexts(t, "gf")
	const tor = "gf-p01-tor01"
	nullRoute := addRoute(t, texts[tor], "ip route 198.51.100.0 255.255.255.0 Null0")
	edit := func(*Snapshot) Scenario { return Scenario{ConfigEdits: map[string]string{tor: nullRoute}} }
	linkDown := func(s *Snapshot) Scenario { return Scenario{LinksDown: s.DataPlane().Topology.Links()[:1]} }
	// withGraph builds the base's graph, as a snapshot that answered a
	// question has.
	withGraph := func(s *Snapshot) { s.Graph() }
	// scoped builds the base's graph scoped to another pod's host subnet,
	// as a sweep runtime's base is: a failure then changes only the FIBs
	// of the devices whose routes to that subnet it touches.
	scoped := func(s *Snapshot) {
		for _, src := range LoadTextWith(pipeline.Disabled(), texts).HostFacing() {
			if src.Device == "gf-p02-tor02" {
				p, _ := s.Net.Devices[src.Device].Interfaces[src.Iface].Primary()
				s.SetDataPlaneOptions(dataplane.Options{Scope: dataplane.Scope{p}})
			}
		}
		s.Graph()
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		pl   func() *pipeline.Pipeline
		prep func(*Snapshot)          // readies the base before Apply
		sc   func(*Snapshot) Scenario // the scenario applied
		bind func(after *Snapshot)    // adjusts the derived snapshot
		want bool
	}{
		{name: "static edit", prep: withGraph, sc: edit, want: true},
		{name: "link failure", prep: withGraph, sc: linkDown, want: true},
		{name: "node failure", prep: scoped, want: true,
			sc: func(*Snapshot) Scenario { return Scenario{NodesDown: []string{tor}} }},
		{name: "failure on Disabled()", pl: pipeline.Disabled, prep: withGraph, sc: linkDown, want: true},
		{name: "no base graph", prep: func(s *Snapshot) { s.DataPlane() }, sc: edit},
		{name: "base graph on another encoder", prep: withGraph, sc: edit,
			bind: func(after *Snapshot) { after.baseG = LoadTextWith(pipeline.Disabled(), texts).Graph() }},
		{name: "cancelled base graph", sc: edit, prep: func(s *Snapshot) {
			s.DataPlane()
			if !s.WithContext(cancelled).Graph().Cancelled {
				t.Fatal("base graph built under a cancelled context is not Cancelled")
			}
			s.WithContext(nil)
		}},
		{name: "config edit on Disabled()", pl: pipeline.Disabled, prep: withGraph, sc: edit, want: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := pipeline.New(pipeline.Config{})
			if tc.pl != nil {
				pl = tc.pl()
			}
			base := LoadTextWith(pl, texts)
			tc.prep(base)
			after := base.Apply(tc.sc(base))
			if tc.bind != nil {
				tc.bind(after)
			}
			dp := after.DataPlane()
			before := pl.Stats().Graph.Updates
			g := after.Graph()
			if got := pl.Stats().Graph.Updates - before; got != map[bool]int64{true: 1}[tc.want] {
				t.Errorf("%d updates (%d fragments reused), want update path %v", got, g.Reused, tc.want)
			}
			if after.baseG != nil {
				t.Error("base graph kept after the graph was built")
			}
			cold := fwdgraph.NewWithEnc(dp, g.Enc)
			if !reflect.DeepEqual(g.Nodes, cold.Nodes) || !reflect.DeepEqual(g.Edges, cold.Edges) {
				t.Errorf("graph (%d nodes, %d edges, %d fragments reused) differs from a cold build (%d nodes, %d edges)",
					len(g.Nodes), len(g.Edges), g.Reused, len(cold.Nodes), len(cold.Edges))
			}
		})
	}
	t.Run("cancelled update", func(t *testing.T) {
		pl := pipeline.New(pipeline.Config{})
		base := LoadTextWith(pl, texts)
		base.Graph()
		after := base.Edit(map[string]string{tor: nullRoute})
		after.DataPlane()
		g := after.WithContext(cancelled).Graph()
		if !g.Cancelled || !after.gKey.IsZero() || len(g.Nodes) != 0 {
			t.Errorf("cancelled update: Cancelled %v, key zero %v, %d nodes; want a partial graph with a zero key",
				g.Cancelled, after.gKey.IsZero(), len(g.Nodes))
		}
	})
}
