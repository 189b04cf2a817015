// Package sweep is the k-failure scenario sweep engine: the flagship
// heavy-traffic workload the cache and parallel layers exist for
// (ROADMAP "failure-scenario sweeps", Plankton in PAPERS.md). It
// enumerates every k=1 and k=2 link/node/session failure over a base
// snapshot, partitions the scenarios into equivalence classes using the
// monitored-traffic cone of reach.ImpactCone — a failure no monitored
// flow can touch cannot change any monitored verdict, so one
// representative per class runs and the rest are stamped — and executes
// the surviving representatives across a worker pool, each worker
// applying them to its own private copy of the base snapshot.
//
// Soundness of the class pruning (see DESIGN §8 for the proof sketch and
// the non-monotone-policy caveat): the monitored-traffic cone is the set
// of devices any monitored header can traverse in the baseline, computed
// by one forward pass (reach.ImpactCone, the exact dual of a per-element
// backward blast-radius pass). Failing elements entirely outside the cone
// removes only routes whose data paths lie outside every monitored
// trajectory, so every in-cone transfer function — and with it every
// monitored verdict — is unchanged. A k=2 scenario with one out-of-cone
// element collapses onto the class of its in-cone projection. The
// acceptance tests spot-check pruned scenarios against cold full runs.
package sweep

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
	"repro/internal/topo"
)

// ElementKind classifies one failable network element.
type ElementKind uint8

// Element kinds.
const (
	LinkDown ElementKind = iota
	NodeDown
	SessionDown
)

// Element is one failable element of the network.
type Element struct {
	Kind    ElementKind
	Link    topo.Link            // when Kind == LinkDown
	Node    string               // when Kind == NodeDown
	Session dataplane.SessionKey // when Kind == SessionDown
}

// ID renders the canonical element identifier.
func (el Element) ID() string {
	switch el.Kind {
	case LinkDown:
		return "link:" + el.Link.String()
	case NodeDown:
		return "node:" + el.Node
	default:
		return "session:" + el.Session.String()
	}
}

// devices lists the devices whose removal semantics the element carries;
// an element is inside the monitored cone iff any of them is.
func (el Element) devices() []string {
	switch el.Kind {
	case LinkDown:
		return []string{el.Link.Node1, el.Link.Node2}
	case NodeDown:
		return []string{el.Node}
	default:
		return []string{el.Session.Node1, el.Session.Node2}
	}
}

// Scenario is one enumerated failure scenario: a set of simultaneously
// failed elements (k = len(Elements)). Elements are kept sorted by ID.
type Scenario struct {
	Elements []Element
}

// ID renders the canonical scenario identifier ("" for the empty
// scenario, element IDs joined by "+" otherwise).
func (s Scenario) ID() string {
	ids := make([]string, len(s.Elements))
	for i, el := range s.Elements {
		ids[i] = el.ID()
	}
	return strings.Join(ids, "+")
}

// overlay converts the scenario into the core snapshot overlay.
func (s Scenario) overlay() core.Scenario {
	var sc core.Scenario
	for _, el := range s.Elements {
		switch el.Kind {
		case LinkDown:
			sc.LinksDown = append(sc.LinksDown, el.Link)
		case NodeDown:
			sc.NodesDown = append(sc.NodesDown, el.Node)
		default:
			sc.SessionsDown = append(sc.SessionsDown, el.Session)
		}
	}
	return sc
}

// Spec configures a sweep.
type Spec struct {
	// K is the maximum number of simultaneous failures (1 or 2; default 1).
	K int
	// Links/Nodes/Sessions select the element kinds to fail. All false
	// defaults to links + nodes.
	Links, Nodes, Sessions bool
	// Sources are the monitored flows' source locations (default: the
	// base snapshot's host-facing interfaces). Scoping sources tightly is
	// what makes class pruning effective: the monitored cone shrinks and
	// most elements fall outside it.
	Sources []reach.SourceLoc
	// DstIPs constrain the monitored header space (default: unconstrained).
	// When non-empty they also scope each class's simulation
	// (dataplane.Options.Scope): a worker simulates only the prefixes a
	// packet to DstIPs can match, plus the ones next-hop and session
	// resolution reads, so a class's Degraded covers those prefixes only.
	DstIPs []ip4.Prefix
	// Workers is the executor's parallelism (default GOMAXPROCS). Each
	// worker owns a private pipeline — BDD factories are unsynchronized,
	// so workers never share one.
	Workers int
	// MaxScenarios caps enumeration as a safety valve (0 = unlimited);
	// exceeding it is an error telling the caller to narrow the spec.
	MaxScenarios int
}

// SourceVerdict is one monitored flow's outcome under a scenario.
type SourceVerdict struct {
	Device    string `json:"device"`
	Iface     string `json:"iface"`
	Delivered bool   `json:"delivered"`
}

// Verdict is the sweep outcome for one enumerated scenario.
type Verdict struct {
	Scenario string `json:"scenario"`
	// Class is the equivalence-class identifier: the canonical ID of the
	// scenario's in-cone element projection ("" = the baseline class —
	// no failed element touches any monitored flow).
	Class string `json:"class,omitempty"`
	// Executed marks the scenario that actually ran as its class
	// representative; the others were stamped from it.
	Executed bool            `json:"executed"`
	Sources  []SourceVerdict `json:"sources"`
	// Violations counts regressions: monitored sources delivered at
	// baseline but not under this scenario.
	Violations int `json:"violations"`
	// Degraded marks a verdict from a degraded run (diagnostics on the class
	// run, repeated worker failure, cancellation); its sources may be partial.
	Degraded bool `json:"degraded,omitempty"`
}

// Result is the full sweep outcome.
type Result struct {
	Enumerated int `json:"enumerated"`
	Classes    int `json:"classes"`
	// Executed counts the class outcomes delivered (the verdicts with
	// Executed set), so a cancelled sweep counts only the classes it ran.
	// Pruned counts the scenarios stamped rather than run, as planned.
	Executed int `json:"executed"`
	Pruned   int `json:"pruned"`
	// Violations counts scenarios with at least one regressed source.
	Violations int             `json:"violations"`
	Baseline   []SourceVerdict `json:"baseline"`
	// Verdicts lists every enumerated scenario in canonical enumeration
	// order, independent of worker count and completion order.
	Verdicts []Verdict `json:"verdicts"`
	Degraded bool      `json:"degraded,omitempty"`
}

// Plan is a prepared sweep: enumerated scenarios, their equivalence
// classes, and the baseline verdicts. Building a plan runs BDD work on
// the base snapshot's pipeline, so callers serialize NewPlan with other
// queries on that pipeline; Execute is self-contained (private per-worker
// pipelines) and needs no such serialization.
type Plan struct {
	spec  Spec
	texts map[string]string
	opts  dataplane.Options

	sources       []reach.SourceLoc
	params        core.ReachabilityParams
	baseline      []SourceVerdict
	baseDelivered map[reach.SourceLoc]bool

	scenarios []Scenario // canonical enumeration order
	classOf   []string   // scenario index → class ID
	classRep  map[string]Scenario
	classIDs  []string // sorted non-empty class IDs
}

// Enumerated returns the number of enumerated scenarios.
func (p *Plan) Enumerated() int { return len(p.scenarios) }

// Classes returns the number of distinct equivalence classes, counting
// the baseline class when present.
func (p *Plan) Classes() int {
	n := len(p.classIDs)
	for _, c := range p.classOf {
		if c == "" {
			return n + 1
		}
	}
	return n
}

// NewPlan enumerates and classifies the sweep over the base snapshot. It
// refuses monitored sources whose device or interface the base snapshot
// does not have.
func NewPlan(base *core.Snapshot, spec Spec) (*Plan, error) {
	if spec.K == 0 {
		spec.K = 1
	}
	if spec.K < 1 || spec.K > 2 {
		return nil, fmt.Errorf("sweep: k=%d unsupported (want 1 or 2)", spec.K)
	}
	if !spec.Links && !spec.Nodes && !spec.Sessions {
		spec.Links, spec.Nodes = true, true
	}
	if spec.Workers <= 0 {
		spec.Workers = runtime.GOMAXPROCS(0)
	}
	dp := base.DataPlane()
	if base.Degraded() {
		return nil, fmt.Errorf("sweep: base snapshot is degraded; refusing to sweep partial truth")
	}
	p := &Plan{
		spec:  spec,
		texts: base.SourceTexts(),
		opts:  base.DataPlaneOptions(),
	}
	p.sources = spec.Sources
	if len(p.sources) == 0 {
		p.sources = base.HostFacing()
	}
	if len(p.sources) == 0 {
		return nil, fmt.Errorf("sweep: no monitored sources")
	}
	var unknown []string
	for _, src := range p.sources {
		if d := base.Net.Devices[src.Device]; d == nil || d.Interfaces[src.Iface] == nil {
			unknown = append(unknown, src.Device+"/"+src.Iface)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("sweep: unknown monitored sources %s", strings.Join(unknown, ", "))
	}
	p.params = core.ReachabilityParams{Sources: p.sources, DstIPs: spec.DstIPs}

	// Enumerate elements in canonical order.
	var elements []Element
	if spec.Links {
		for _, l := range dp.Topology.Links() {
			elements = append(elements, Element{Kind: LinkDown, Link: l})
		}
	}
	if spec.Nodes {
		for _, n := range base.Net.DeviceNames() {
			elements = append(elements, Element{Kind: NodeDown, Node: n})
		}
	}
	if spec.Sessions {
		var keys []dataplane.SessionKey
		for _, s := range dp.Sessions {
			if s.Up {
				keys = append(keys, s.Key())
			}
		}
		sort.Slice(keys, func(i, j int) bool { return dataplane.LessSessionKey(keys[i], keys[j]) })
		for i, k := range keys {
			if i > 0 && k == keys[i-1] {
				continue
			}
			elements = append(elements, Element{Kind: SessionDown, Session: k})
		}
	}

	// Enumerate scenarios: all singles, then all unordered pairs.
	for _, el := range elements {
		p.scenarios = append(p.scenarios, Scenario{Elements: []Element{el}})
	}
	if spec.K >= 2 {
		for i := range elements {
			for j := i + 1; j < len(elements); j++ {
				a, b := elements[i], elements[j]
				if b.ID() < a.ID() {
					a, b = b, a
				}
				p.scenarios = append(p.scenarios, Scenario{Elements: []Element{a, b}})
			}
		}
	}
	if spec.MaxScenarios > 0 && len(p.scenarios) > spec.MaxScenarios {
		return nil, fmt.Errorf("sweep: %d scenarios exceed the cap of %d; narrow the element kinds or drop to k=1",
			len(p.scenarios), spec.MaxScenarios)
	}

	// Monitored-traffic cone: one forward pass from the monitored sources
	// over the monitored destination space. Per-source source-IP scoping
	// is deliberately skipped — a broader header space only widens the
	// cone, which keeps the pruning sound.
	g := base.Graph()
	enc := g.Enc
	hs := bdd.Ref(bdd.True)
	for _, d := range spec.DstIPs {
		hs = enc.F.And(hs, enc.Prefix(hdr.DstIP, d))
	}
	srcMap := make(map[reach.SourceLoc]bdd.Ref, len(p.sources))
	for _, src := range p.sources {
		srcMap[src] = hs
	}
	cone := reach.ImpactCone(g, srcMap)
	touched := func(el Element) bool {
		for _, d := range el.devices() {
			if set, ok := cone[d]; ok && set != bdd.False {
				return true
			}
		}
		return false
	}

	// Baseline verdicts.
	flows := base.Reachability(p.params)
	p.baseline = renderSources(p.sources, flows)
	p.baseDelivered = make(map[reach.SourceLoc]bool, len(p.baseline))
	for _, sv := range p.baseline {
		p.baseDelivered[reach.SourceLoc{Device: sv.Device, Iface: sv.Iface}] = sv.Delivered
	}

	// Classify: the class of a scenario is its in-cone element projection.
	p.classOf = make([]string, len(p.scenarios))
	p.classRep = make(map[string]Scenario)
	for i, sc := range p.scenarios {
		var inCone []Element
		for _, el := range sc.Elements {
			if touched(el) {
				inCone = append(inCone, el)
			}
		}
		rep := Scenario{Elements: inCone}
		id := rep.ID()
		p.classOf[i] = id
		if id != "" {
			if _, ok := p.classRep[id]; !ok {
				p.classRep[id] = rep
				p.classIDs = append(p.classIDs, id)
			}
		}
	}
	sort.Strings(p.classIDs)
	return p, nil
}

// renderSources projects flow results onto the monitored source list in
// order; sources without a flow result (e.g. a source on a downed device)
// count as not delivered.
func renderSources(sources []reach.SourceLoc, flows []core.FlowResult) []SourceVerdict {
	byLoc := make(map[reach.SourceLoc]bool, len(flows))
	for _, fr := range flows {
		byLoc[fr.Source] = fr.Delivered != bdd.False
	}
	out := make([]SourceVerdict, len(sources))
	for i, src := range sources {
		out[i] = SourceVerdict{Device: src.Device, Iface: src.Iface, Delivered: byLoc[src]}
	}
	return out
}

// violationsIn counts regressions against the baseline verdicts.
func (p *Plan) violationsIn(sources []SourceVerdict) int {
	n := 0
	for _, sv := range sources {
		if !sv.Delivered && p.baseDelivered[reach.SourceLoc{Device: sv.Device, Iface: sv.Iface}] {
			n++
		}
	}
	return n
}
