package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/diag"
	"repro/internal/fidelity"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
)

// verifyCold is the CI pre-deployment check: one client runs full cold
// verifications back to back, each on a fresh caching-disabled pipeline
// (parse → data plane → graph → analysis → all-pairs Reachability +
// MultipathConsistency). One op verifies NET2, the 92-device Clos with
// edge ACLs from Table 2, and then a 50-node random OSPF mesh drawn from
// the seed. The mesh is kept small beside NET2 so that its seed-dependent
// cost moves an op by a few percent only. The artifact caches, the server
// and incremental reuse are bypassed.
type verifyCold struct {
	cfg  runConfig
	nets []verifyNet
}

type verifyNet struct {
	name   string
	texts  map[string]string
	digest string // the reference verdict every op must reproduce
}

func (w *verifyCold) clients() int { return 1 }

// setup generates both networks and checks that each parses and simulates
// cleanly; reference then checks that each verifies cleanly, so no op can
// fail on its input. The simulation makes set-up long enough (about half
// a CPU-second) that garbage-collection noise does not set its time.
func (w *verifyCold) setup() error {
	var clos, mesh *netgen.Snapshot
	if w.cfg.tiny {
		clos = netgen.Fabric(netgen.FabricParams{Name: "net2", Spines: 2, Pods: 2, AggPerPod: 2,
			TorPerPod: 2, HostNetsPerTor: 2, Multipath: true, EdgeACLs: true})
		mesh = netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 12, Degree: 4, LansPerNode: 1, Seed: w.cfg.seed})
	} else {
		for _, spec := range netgen.Catalog() {
			if spec.Name == "NET2" {
				clos = spec.Gen()
			}
		}
		mesh = netgen.Random(netgen.RandomParams{Name: "mesh", Nodes: 50, Degree: 4, LansPerNode: 1, Seed: w.cfg.seed})
	}
	if clos == nil {
		return fmt.Errorf("NET2 missing from the netgen catalog")
	}
	w.nets = []verifyNet{{name: "NET2", texts: textsOf(clos)}, {name: "mesh", texts: textsOf(mesh)}}
	for _, n := range w.nets {
		s := core.LoadTextWith(pipeline.Disabled(), n.texts)
		if len(s.Net.Devices) != len(n.texts) || s.Degraded() {
			return fmt.Errorf("%s: %d of %d devices parsed, diagnostics %v", n.name, len(s.Net.Devices), len(n.texts), s.Diags())
		}
		if s.DataPlane(); s.Degraded() {
			return fmt.Errorf("%s: simulation diagnostics %v", n.name, s.Diags())
		}
	}
	return nil
}

// reference verifies each network once and records the digest of its
// verdict. The seeded mesh is also cross-validated — BDD reachability
// against concrete traceroute, both directions — on every run. NET2 does
// not depend on the seed; its cross-validation takes about 13 s, so it
// runs in TestCrossValidateNET2 instead of in every run.
func (w *verifyCold) reference() error {
	for i := range w.nets {
		n := &w.nets[i]
		s, flows, mp := verifyOnce(nil, n.texts)
		if s.Degraded() || len(flows) == 0 {
			return fmt.Errorf("%s: degraded=%v flows=%d", n.name, s.Degraded(), len(flows))
		}
		n.digest = digest(renderVerification(flows, mp))
		if n.name == "NET2" && !w.cfg.tiny {
			continue
		}
		if err := crossValidate(n.name, s, w.cfg.seed); err != nil {
			return err
		}
	}
	return nil
}

// crossValidate requires the BDD engine and the concrete traceroute engine
// to agree on s's data plane.
func crossValidate(name string, s *core.Snapshot, seed int64) error {
	if mm := fidelity.CrossValidate(s.DataPlane(), 1, 64, seed); len(mm) > 0 {
		return fmt.Errorf("%s: %d BDD/traceroute mismatches, first: %v", name, len(mm), mm[0])
	}
	return nil
}

// verifyOnce runs one cold verification with a span around each layer call.
func verifyOnce(root *span, texts map[string]string) (*core.Snapshot, []core.FlowResult, []reach.MultipathViolation) {
	sp := root.child("LoadTextWith", "parse")
	s := core.LoadTextWith(pipeline.Disabled(), texts)
	sp.end()
	sp.count("devices", int64(len(texts)))

	sp = root.child("DataPlane", "dataplane")
	dp := s.DataPlane()
	sp.end()
	countDataPlane(sp, dp)

	sp = root.child("Graph", "fwdgraph")
	g := s.Graph()
	sp.end()
	sp.count("edges", int64(len(g.Edges)))

	sp = root.child("Analysis", "reach")
	s.Analysis()
	sp.end()
	sp = root.child("Reachability", "reach")
	flows := s.Reachability(core.ReachabilityParams{})
	sp.end()
	sp.count("flows", int64(len(flows)))
	sp = root.child("MultipathConsistency", "reach")
	mp := s.MultipathConsistency()
	sp.end()
	sp.count("flows", int64(len(mp)))

	// The disabled pipeline gives every graph a fresh factory, so its size
	// and op count are this verification's.
	root.count("bdd_nodes", int64(g.Enc.F.Size()))
	root.count("bdd_ops", int64(g.Enc.F.OpCount()))
	return s, flows, mp
}

// countDataPlane attaches the simulation's counters to its span.
func countDataPlane(sp *span, dp *dataplane.Result) {
	if sp == nil {
		return
	}
	sp.count("bgp_iterations", int64(dp.BGPIterations))
	if dp.Pool != nil {
		st := dp.Pool.Stats()
		hits := st.AttrHits + st.PathHits
		sp.count("intern_hits", int64(hits))
		sp.count("intern_lookups", int64(hits+st.AttrMisses+st.PathMisses))
	}
}

func (w *verifyCold) op(root *span, _, _ int) (string, func() error, error) {
	// An answer keeps what the check reads, not the snapshot, so one
	// network's data plane and BDD tables are garbage while the next one
	// is verified.
	type answer struct {
		diags []diag.Diagnostic
		flows []core.FlowResult
		mp    []reach.MultipathViolation
	}
	answers := make([]answer, len(w.nets))
	for i, n := range w.nets {
		s, flows, mp := verifyOnce(root, n.texts)
		answers[i] = answer{s.Diags(), flows, mp}
	}
	return "verify", func() error {
		for i, a := range answers {
			n := w.nets[i]
			if len(a.diags) > 0 {
				return fmt.Errorf("%s: degraded verification: %v", n.name, a.diags)
			}
			if d := digest(renderVerification(a.flows, a.mp)); d != n.digest {
				return fmt.Errorf("%s: verdict digest %s, reference %s", n.name, d, n.digest)
			}
		}
		return nil
	}, nil
}

func (w *verifyCold) finish() error { return nil }

func (w *verifyCold) layers(int) map[string]float64 { return map[string]float64{} }

// renderVerification renders a verification's verdict: the reachability
// answer in the CLI format plus every multipath-consistency violation.
func renderVerification(flows []core.FlowResult, mp []reach.MultipathViolation) string {
	var b strings.Builder
	b.WriteString(server.RenderFlows(flows))
	for _, v := range mp {
		fmt.Fprintf(&b, "multipath %s/%s: %v\n", v.Source.Device, v.Source.Iface, v.Example)
	}
	return b.String()
}
