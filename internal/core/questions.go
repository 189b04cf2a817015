package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/acl"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/reach"
	"repro/internal/routing"
	"repro/internal/traceroute"
)

// guardQuestion runs one question body with panic isolation: a panic (or
// BDD budget trip) inside fn becomes a question-stage diagnostic on the
// snapshot instead of crashing the caller, and the question returns
// whatever partial answer was assembled before the failure. The device
// field carries the question scope — a source device for per-source
// guards, the question name for whole-question guards. A body that ends
// with the snapshot's context expired records the cancellation
// diagnostic (cut).
func (s *Snapshot) guardQuestion(scope string, fn func()) bool {
	d := diag.Capture(diag.StageQuestion, scope, func() {
		faults.Fire("question", scope)
		fn()
	})
	s.cut(s.context())
	if d != nil {
		s.addDiag(*d)
		return false
	}
	return true
}

// Finding is one result row of a question; questions return sorted,
// deterministic findings so snapshots diff cleanly in CI workflows
// (paper §5.1.1).
type Finding struct {
	Node   string
	Detail string
}

func (f Finding) String() string { return f.Node + ": " + f.Detail }

func sortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Node != fs[j].Node {
			return fs[i].Node < fs[j].Node
		}
		return fs[i].Detail < fs[j].Detail
	})
	return fs
}

// UndefinedReferences reports uses of undefined structures — the canonical
// high-value local analysis (Lesson 5: "If a missing route-map results in
// bad forwarding, it is much easier to find this error by checking for
// undefined route-maps").
func (s *Snapshot) UndefinedReferences() []Finding {
	var out []Finding
	for _, name := range s.Net.DeviceNames() {
		for _, r := range s.Net.Devices[name].UndefinedRefs() {
			out = append(out, Finding{Node: name,
				Detail: fmt.Sprintf("undefined %s %q referenced at %s", r.Type, r.Name, r.Context)})
		}
	}
	return sortFindings(out)
}

// UnusedStructures reports defined-but-unreferenced structures.
func (s *Snapshot) UnusedStructures() []Finding {
	var out []Finding
	for _, name := range s.Net.DeviceNames() {
		for _, r := range s.Net.Devices[name].UnusedStructures() {
			out = append(out, Finding{Node: name,
				Detail: fmt.Sprintf("unused %s %q", r.Type, r.Name)})
		}
	}
	return sortFindings(out)
}

// DuplicateIPs reports addresses assigned to more than one place in the
// network (Lesson 5: "uniqueness of assigned IP addresses").
func (s *Snapshot) DuplicateIPs() []Finding {
	owners := make(map[ip4.Addr][]string)
	for _, name := range s.Net.DeviceNames() {
		for a, ifaces := range s.Net.Devices[name].OwnedIPs() {
			for _, i := range ifaces {
				owners[a] = append(owners[a], name+":"+i)
			}
		}
	}
	var out []Finding
	for a, os := range owners {
		if len(os) < 2 {
			continue
		}
		sort.Strings(os)
		out = append(out, Finding{Node: os[0],
			Detail: fmt.Sprintf("address %s also assigned at %s", a, strings.Join(os[1:], ", "))})
	}
	return sortFindings(out)
}

// NTPConsistency reports devices whose NTP server set differs from the
// majority (the configuration-settings check of Lesson 5).
func (s *Snapshot) NTPConsistency() []Finding {
	render := func(addrs []ip4.Addr) string {
		ss := make([]string, len(addrs))
		for i, a := range addrs {
			ss[i] = a.String()
		}
		sort.Strings(ss)
		return strings.Join(ss, ",")
	}
	counts := make(map[string]int)
	for _, name := range s.Net.DeviceNames() {
		counts[render(s.Net.Devices[name].NTPServers)]++
	}
	majority, best := "", -1
	for k, c := range counts {
		if c > best || (c == best && k < majority) {
			majority, best = k, c
		}
	}
	var out []Finding
	for _, name := range s.Net.DeviceNames() {
		if got := render(s.Net.Devices[name].NTPServers); got != majority {
			out = append(out, Finding{Node: name,
				Detail: fmt.Sprintf("ntp servers [%s] differ from majority [%s]", got, majority)})
		}
	}
	return sortFindings(out)
}

// BGPSessionStatus reports every configured session and why it is down —
// the BGP compatibility analysis (Lesson 5) plus viability (§4.1.1).
func (s *Snapshot) BGPSessionStatus() []Finding {
	dp := s.DataPlane()
	var out []Finding
	for _, sess := range dp.Sessions {
		state := "established"
		if !sess.Up {
			state = "down: " + sess.DownReason
		}
		out = append(out, Finding{Node: sess.LocalNode,
			Detail: fmt.Sprintf("neighbor %s (AS %d): %s", sess.PeerIP, sess.PeerAS, state)})
	}
	return sortFindings(out)
}

// Routes returns the main RIB of one device in display order.
func (s *Snapshot) Routes(node string) []routing.Route {
	ns := s.DataPlane().Nodes[node]
	if ns == nil {
		return nil
	}
	return ns.DefaultVRF().Main.AllBest()
}

// TestFilter evaluates a named ACL against a concrete packet — the "does
// this ACL allow this packet" question of Lesson 5.
func (s *Snapshot) TestFilter(node, aclName string, p hdr.Packet) (acl.Disposition, error) {
	d := s.Net.Devices[node]
	if d == nil {
		return acl.Disposition{}, fmt.Errorf("no device %q", node)
	}
	a, ok := d.ACLs[aclName]
	if !ok {
		return acl.Disposition{}, fmt.Errorf("no ACL %q on %s", aclName, node)
	}
	return a.Eval(p), nil
}

// SearchFilter finds a packet the ACL disposes of as requested (symbolic
// filter analysis), or ok=false if none exists.
func (s *Snapshot) SearchFilter(node, aclName string, want acl.Action) (hdr.Packet, bool, error) {
	d := s.Net.Devices[node]
	if d == nil {
		return hdr.Packet{}, false, fmt.Errorf("no device %q", node)
	}
	a, ok := d.ACLs[aclName]
	if !ok {
		return hdr.Packet{}, false, fmt.Errorf("no ACL %q on %s", aclName, node)
	}
	enc := s.Graph().Enc
	c := acl.Compile(enc, a)
	set := c.Permit
	if want == acl.Deny {
		set = enc.F.Not(c.Permit)
	}
	p, found := enc.PickPacket(set,
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
		enc.FieldGE(hdr.SrcPort, 1024))
	return p, found, nil
}

// FlowResult is the answer to a reachability question: the flow set per
// disposition plus contrasted example packets (paper §4.4.3: "instead of
// showing only the counterexample, Batfish also shows a positive
// example").
type FlowResult struct {
	Source    reach.SourceLoc
	Delivered bdd.Ref
	Failed    bdd.Ref
	// PositiveExample is a delivered packet, NegativeExample a failed one
	// (zero packets when the respective set is empty).
	PositiveExample hdr.Packet
	HasPositive     bool
	NegativeExample hdr.Packet
	HasNegative     bool
	// Traces explain the negative example hop by hop.
	Traces []traceroute.Trace
}

// ReachabilityParams scope a reachability question. Zero values get the
// paper's §4.4.2 defaults: sources are host-facing interfaces, source IPs
// are scoped to the source subnet (suppressing spoofed-source violations),
// and examples prefer TCP with unprivileged source ports (suppressing the
// privileged-port and reply-flag uninteresting violations of Lesson 4).
type ReachabilityParams struct {
	Sources []reach.SourceLoc // default: host-facing interfaces
	DstIPs  []ip4.Prefix      // default: unconstrained
	Headers bdd.Ref           // extra header constraint (bdd.True default)
}

// Reachability answers "what can each source deliver / what fails",
// with default scoping and example selection.
//
// With the default sources, every source's sink sets are read off one
// backward pass per sink kind (reach.AllPairs) instead of one forward
// pass per source; sharedPasses decides when. A source the snapshot does
// not have yields no row.
//
// Sources are independently guarded: a panic or budget trip while
// analyzing one source records a question-stage diagnostic naming that
// source's device and the remaining sources still produce results.
func (s *Snapshot) Reachability(params ReachabilityParams) []FlowResult {
	sources := params.Sources
	if len(sources) == 0 {
		sources = s.HostFacing()
	}
	ap := s.sharedPasses(s.context(), nil, bdd.True, len(params.Sources) > 0)
	var out []FlowResult
	for _, src := range sources {
		var fr FlowResult
		var ok bool
		if !s.guardQuestion(src.Device, func() {
			fr, ok = s.reachOne(src, params, ap)
		}) {
			continue
		}
		if ok {
			out = append(out, fr)
		}
	}
	return out
}

// allPairsScope is the question-stage scope of the shared all-pairs pass.
const allPairsScope = "all-pairs"

// sharedPasses decides where a question's sink sets come from (DESIGN §4,
// "Stage 3 questions"): an's shared backward passes within h (see
// reach.AllPairsWithin), or, returned as nil, one forward pass per
// source. It is per source when the caller says so (perSource: the
// question names its sources, or a compare's candidate has a BDD node
// budget), when s has a BDD node budget, so that a budget trip costs one
// source and not the question, on a graph with NAT (see
// reach.Analysis.AllPairsExact), and when the shared pass fails or ctx
// expires, which records its diagnostic on s. A nil an is s's own
// analysis, built only when the passes are attempted.
func (s *Snapshot) sharedPasses(ctx context.Context, an *reach.Analysis, h bdd.Ref, perSource bool) (ap *reach.AllPairs) {
	if perSource || s.bddBudget > 0 {
		return nil
	}
	if an == nil {
		an = s.analysis(ctx)
	}
	if !an.AllPairsExact() {
		return nil
	}
	s.guardQuestion(allPairsScope, func() {
		ap, _ = an.AllPairsWithin(ctx, h)
	})
	return ap
}

// sinkSetsFor answers "what reaches each sink kind from src over hs",
// memoized per snapshot unless the deadline expired: read off the
// shared passes when ap is non-nil, else one forward pass from src.
func (s *Snapshot) sinkSetsFor(src reach.SourceLoc, hs bdd.Ref, ap *reach.AllPairs) (map[string]bdd.Ref, bool) {
	k := memoKey{src: src, hs: hs}
	if v, ok := s.reachMemo[k]; ok {
		return v, true
	}
	ctx := s.context()
	sinks, ok := s.Analysis().SinksOf(ctx, ap, src, hs)
	if !ok || s.cut(ctx) {
		return sinks, ok
	}
	if s.reachMemo == nil {
		s.reachMemo = make(map[memoKey]map[string]bdd.Ref)
	}
	s.reachMemo[k] = sinks
	return sinks, true
}

// iface returns src's interface, or nil when the snapshot has no such
// device or interface.
func (s *Snapshot) iface(src reach.SourceLoc) *config.Interface {
	if d := s.Net.Devices[src.Device]; d != nil {
		return d.Interfaces[src.Iface]
	}
	return nil
}

// sourceScope returns the default source-IP constraint for packets
// injected at src (§4.4.2: "limit the set of source and destination IPs
// to those that can likely originate at those interfaces"): the
// interface's subnets minus its own addresses, or True for a source with
// no subnet or none the snapshot has.
func (s *Snapshot) sourceScope(enc *hdr.Enc, src reach.SourceLoc) bdd.Ref {
	i := s.iface(src)
	if i == nil {
		return bdd.True
	}
	f := enc.F
	scope := bdd.False
	for _, p := range i.Addresses {
		if p.Len < 32 {
			scope = f.Or(scope, enc.Prefix(hdr.SrcIP, p))
		}
	}
	if scope == bdd.False {
		return bdd.True
	}
	for _, p := range i.Addresses {
		scope = f.Diff(scope, enc.FieldEq(hdr.SrcIP, uint32(p.Addr)))
	}
	return scope
}

// reachOne answers the reachability question for a single source, from
// the shared passes when ap is non-nil.
func (s *Snapshot) reachOne(src reach.SourceLoc, params ReachabilityParams, ap *reach.AllPairs) (FlowResult, bool) {
	enc := s.Analysis().Enc
	f := enc.F
	hs := params.Headers
	if hs == 0 {
		hs = bdd.True
	}
	hs = f.And(hs, s.sourceScope(enc, src))
	for _, dst := range params.DstIPs {
		hs = f.And(hs, enc.Prefix(hdr.DstIP, dst))
	}
	sinks, ok := s.sinkSetsFor(src, hs, ap)
	if !ok {
		return FlowResult{}, false
	}
	success, failure := reach.Partition(sinks, f)
	fr := FlowResult{Source: src, Delivered: success, Failed: failure}
	// Example preferences implement Lesson 4's uninteresting-violation
	// suppression: common protocol/application, unprivileged source
	// port, and fresh-request TCP flags (not a spoofed reply).
	prefs := []bdd.Ref{
		enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
		enc.FieldEq(hdr.DstPort, 80),
		enc.FieldGE(hdr.SrcPort, 1024),
		enc.FieldEq(hdr.TCPFlags, hdr.FlagSYN),
	}
	if p, ok := enc.PickPacket(success, prefs...); ok {
		fr.PositiveExample, fr.HasPositive = p, true
	}
	if p, ok := enc.PickPacket(failure, prefs...); ok {
		fr.NegativeExample, fr.HasNegative = p, true
		vrf := config.DefaultVRF
		if i := s.iface(src); i != nil {
			vrf = i.VRFOrDefault()
		}
		fr.Traces = s.Traceroute().Run(src.Device, vrf, src.Iface, p)
	}
	return fr, true
}

// MultipathConsistency runs the paper's benchmark verification query
// (§6.1) over the default header space, reading the same shared passes as
// Reachability where sharedPasses allows them. Like Reachability it
// guards each source: a panic or budget trip while checking one becomes a
// question-stage diagnostic naming its device and costs that source's
// violations, not the others'. A failure before the first source (the
// analysis or the shared passes) costs the question.
func (s *Snapshot) MultipathConsistency() (out []reach.MultipathViolation) {
	ctx := s.context()
	var an *reach.Analysis
	var ap *reach.AllPairs
	if !s.guardQuestion("multipath-consistency", func() {
		an, ap = s.analysis(ctx), s.sharedPasses(ctx, nil, bdd.True, false)
	}) {
		return nil
	}
	for _, src := range an.Sources() {
		s.guardQuestion(src.Device, func() {
			if v, ok := an.MultipathViolationOf(ctx, ap, src, bdd.True); ok {
				out = append(out, v)
			}
		})
	}
	return out
}

// DifferentialFlows compares delivered sets between this snapshot and a
// candidate change, per shared source location — the proactive-validation
// workflow (§5.1): flows that the change breaks or newly admits.
type DifferentialFlows struct {
	Source      reach.SourceLoc
	Broken      bdd.Ref // delivered before, not after
	NewlyArrive bdd.Ref // delivered after, not before
	BrokenEx    hdr.Packet
	HasBroken   bool
}

// CompareWith diffs reachability against a modified snapshot. Both
// snapshots are analyzed with the same BDD encoder so the sets are
// directly comparable: snapshots of one pipeline use their own
// analyses, others a fresh pair built on this snapshot's encoder. Each
// source's sink sets come from the analyses' shared backward passes
// where sharedPasses allows them. This snapshot's context governs the
// whole comparison: the candidate's data plane, graph and analysis are
// built, and both snapshots' fixed points run, under it.
//
// Only the headers the edit can change are diffed: outside the graphs'
// Delta every packet is forwarded alike, so each source's sink sets are
// read within it on both sides — this snapshot's from its memoised full
// passes, the candidate's from passes restricted to it — and every diff
// is the Ref a full comparison gives (DESIGN §8, "Incremental compare").
func (s *Snapshot) CompareWith(after *Snapshot) (out []DifferentialFlows) {
	s.guardQuestion("compare", func() {
		out = s.compareWith(after)
	})
	return out
}

func (s *Snapshot) compareWith(after *Snapshot) []DifferentialFlows {
	ctx := s.context()
	g1, g2 := s.Graph(), after.graph(ctx)
	var a1, a2 *reach.Analysis
	if g2.Enc == g1.Enc {
		// Same pipeline encoder: the snapshots' own (possibly cached)
		// analyses are directly comparable.
		a1 = s.Analysis()
		a2 = after.analysis(ctx)
	} else {
		// Rebuild the after-graph sharing the encoder.
		g2 = fwdgraph.Update(ctx, nil, after.dataPlane(ctx), g1.Enc)
		a1 = reach.New(g1)
		a2 = reach.New(g2)
	}
	h := fwdgraph.Delta(g1, g2)
	if h == bdd.False {
		return nil
	}
	perSource := after.bddBudget > 0
	ap1, ap2 := s.sharedPasses(ctx, a1, bdd.True, perSource), s.sharedPasses(ctx, a2, h, perSource)
	return diffFlows(ctx, a1, a2, ap1, ap2, h)
}

// diffFlows diffs the delivered sets of every source of a1 against a2's,
// read within h off ap1 and ap2 where they are non-nil, else by one
// forward pass per source.
func diffFlows(ctx context.Context, a1, a2 *reach.Analysis, ap1, ap2 *reach.AllPairs, h bdd.Ref) []DifferentialFlows {
	enc := a1.Enc
	f := enc.F
	var out []DifferentialFlows
	for _, src := range a1.Sources() {
		k1, ok1 := a1.SinksOf(ctx, ap1, src, h)
		k2, ok2 := a2.SinksOf(ctx, ap2, src, h)
		if !ok1 || !ok2 {
			continue
		}
		s1, _ := reach.Partition(k1, f)
		s2, _ := reach.Partition(k2, f)
		broken := f.Diff(s1, s2)
		newly := f.Diff(s2, s1)
		if broken == bdd.False && newly == bdd.False {
			continue
		}
		df := DifferentialFlows{Source: src, Broken: broken, NewlyArrive: newly}
		if p, ok := enc.PickPacket(broken, enc.FieldEq(hdr.Protocol, hdr.ProtoTCP)); ok {
			df.BrokenEx, df.HasBroken = p, true
		}
		out = append(out, df)
	}
	return out
}

// Disposition names re-exported for callers inspecting FlowResult traces.
const (
	SinkAccepted        = fwdgraph.SinkAccepted
	SinkDeliveredToHost = fwdgraph.SinkDeliveredToHost
	SinkExitsNetwork    = fwdgraph.SinkExitsNetwork
)

// DetectLoops reports forwarding loops per source location: packet sets
// with no path to any disposition sink necessarily cycle forever. A panic
// or budget trip inside the query becomes a question-stage diagnostic and
// nil results.
func (s *Snapshot) DetectLoops() (out []reach.LoopResult) {
	s.guardQuestion("detect-loops", func() {
		out = s.Analysis().DetectLoops(s.context(), bdd.True)
	})
	return out
}
