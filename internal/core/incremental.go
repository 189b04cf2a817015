package core

import (
	"repro/internal/bdd"
	"repro/internal/hdr"
	"repro/internal/reach"
	"repro/internal/topo"
)

// This file implements incremental re-analysis for snapshots derived via
// Edit, exploiting flow equivalence between snapshots (the Plankton
// lesson): a flow whose trajectory in the baseline never touches a
// changed device follows the identical trajectory after the edit, because
// every node it visits has an identical transfer function and an
// identical edge set. Question answers for such flows are reused
// verbatim; only flows inside the per-source "blast radius" are re-run,
// restricted to that set.
//
// Soundness of the restriction relies on two facts. First, the blast
// radius is computed as a backward overapproximation on the baseline
// graph (reach.ImpactSets), so it contains every flow whose behavior can
// differ. Second, for transform-free graphs a forward pass restricted to
// a header set B yields exactly the full pass's sink sets conjoined with
// B (labels only conjoin headers, and zone/waypoint bookkeeping is
// independent of header bits), so stitched answers equal full recomputes
// node-for-node — and BDD canonicity then makes them byte-identical,
// down to the example packets PickPacket extracts. Graphs with header
// rewriting (NAT) fail HasTransforms and fall back to full recomputation.

// incrementalEligible reports whether s can answer questions
// incrementally against its Edit baseline: both snapshots must share one
// caching pipeline (hence one BDD encoder), have parse keys for every
// device, and both forwarding graphs must be transform-free.
func (s *Snapshot) incrementalEligible() bool {
	b := s.baseline
	if b == nil || s.pl == nil || b.pl != s.pl || !s.pl.Enabled() {
		return false
	}
	for name := range s.Net.Devices {
		if _, ok := s.devKeys[name]; !ok {
			return false
		}
	}
	for name := range b.Net.Devices {
		if _, ok := b.devKeys[name]; !ok {
			return false
		}
	}
	if reach.HasTransforms(b.Graph()) || reach.HasTransforms(s.Graph()) {
		return false
	}
	return true
}

// changedDevices computes the device set whose behavior may differ
// between the two snapshots: devices whose parsed model changed (config
// edit, addition, removal), devices whose computed forwarding state
// changed (route propagation fallout), and topology neighbors of
// model-changed devices on either side (an address edit changes the
// neighbor's edge set even when the neighbor's own state is untouched).
func changedDevices(before, after *Snapshot) map[string]bool {
	changed := make(map[string]bool)
	var modelChanged []string
	for name, k := range before.devKeys {
		if ak, ok := after.devKeys[name]; !ok || ak != k {
			changed[name] = true
			modelChanged = append(modelChanged, name)
		}
	}
	for name := range after.devKeys {
		if _, ok := before.devKeys[name]; !ok {
			changed[name] = true
			modelChanged = append(modelChanged, name)
		}
	}
	for _, name := range before.Net.DeviceNames() {
		if !changed[name] && before.nodeFingerprint(name) != after.nodeFingerprint(name) {
			changed[name] = true
		}
	}
	dp1, dp2 := before.DataPlane(), after.DataPlane()
	// Failure-scenario kinds contribute their endpoints explicitly: a pure
	// link/node/session failure leaves every parse key identical, and a
	// failed element whose routes were already unused can leave every
	// fingerprint identical too — yet the element's forwarding-graph edges
	// still differ, so its endpoints must count as changed.
	if sc := after.scenario; sc != nil {
		for _, l := range sc.LinksDown {
			changed[l.Node1] = true
			changed[l.Node2] = true
		}
		for _, n := range sc.NodesDown {
			changed[n] = true
			// The baseline topology still has the node's edges; each
			// neighbor loses an adjacency (and with it delivery edges).
			for _, e := range dp1.Topology.Neighbors(n) {
				changed[e.Node2] = true
			}
		}
		for _, k := range sc.SessionsDown {
			changed[k.Node1] = true
			changed[k.Node2] = true
		}
	}
	for _, name := range modelChanged {
		n1, n2 := dp1.Topology.Neighbors(name), dp2.Topology.Neighbors(name)
		if sameTopoEdges(n1, n2) {
			// The edit left the device's adjacency intact (e.g. a pure
			// route or ACL change): neighbors' edge sets are unaffected,
			// and any forwarding fallout on them is caught by the
			// fingerprint diff above.
			continue
		}
		for _, e := range n1 {
			changed[e.Node2] = true
		}
		for _, e := range n2 {
			changed[e.Node2] = true
		}
	}
	return changed
}

// nodeFingerprint memoizes DataPlane().NodeFingerprint per device: one
// Edit baseline is diffed against every snapshot derived from it, and its
// data plane never changes.
func (s *Snapshot) nodeFingerprint(name string) uint64 {
	fp, ok := s.nodeFPs[name]
	if !ok {
		if s.nodeFPs == nil {
			s.nodeFPs = make(map[string]uint64)
		}
		fp = s.DataPlane().NodeFingerprint(name)
		s.nodeFPs[name] = fp
	}
	return fp
}

func sameTopoEdges(a, b []topo.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[topo.Edge]int, len(a))
	for _, e := range a {
		set[e]++
	}
	for _, e := range b {
		if set[e] == 0 {
			return false
		}
		set[e]--
	}
	return true
}

// impactSets returns (and caches) the per-source blast radius of this
// snapshot's edit relative to its baseline. ok is false when incremental
// analysis does not apply (no baseline, different pipelines, NAT, ...).
func (s *Snapshot) impactSets() (map[reach.SourceLoc]bdd.Ref, bool) {
	if s.impactDone {
		return s.impact, s.impactOK
	}
	s.impactDone = true
	if !s.incrementalEligible() {
		return nil, false
	}
	changed := changedDevices(s.baseline, s)
	s.impact = reach.ImpactSets(s.baseline.Graph(), changed)
	s.impactOK = true
	return s.impact, true
}

// sinkSetsFor answers "what reaches each sink kind from src over hs",
// memoized per snapshot. Given the shared all-pairs passes it reads the
// answer off them. Otherwise, on an edited snapshot it reuses the
// baseline's memoized answer for all flows outside the blast radius and
// re-runs only the restricted remainder; the stitched result is
// byte-identical to a full pass (see the file comment).
func (s *Snapshot) sinkSetsFor(src reach.SourceLoc, hs bdd.Ref, ap *reach.AllPairs) (map[string]bdd.Ref, bool) {
	if s.reachMemo == nil {
		s.reachMemo = make(map[memoKey]map[string]bdd.Ref)
	}
	k := memoKey{src: src, hs: hs}
	if v, ok := s.reachMemo[k]; ok {
		return v, true
	}
	if ap != nil {
		sinks, ok := ap.Sinks(src, hs)
		if ok {
			s.reachMemo[k] = sinks
		}
		return sinks, ok
	}
	an := s.Analysis()
	if impact, ok := s.impactSets(); ok {
		if base, ok := s.baseline.reachMemo[k]; ok {
			bc, hit := impact[src]
			if !hit {
				// No flow from src can touch a changed device: the
				// baseline's answer is the after answer.
				s.reachMemo[k] = base
				return base, true
			}
			f := an.Enc.F
			if restricted, ok := an.Reachability(src, f.And(hs, bc)); ok {
				merged := make(map[string]bdd.Ref, len(base)+len(restricted.Sinks))
				for kind, set := range base {
					if kept := f.Diff(set, bc); kept != bdd.False {
						merged[kind] = kept
					}
				}
				for kind, set := range restricted.Sinks {
					if set == bdd.False {
						continue
					}
					if prev, ok := merged[kind]; ok {
						merged[kind] = f.Or(prev, set)
					} else {
						merged[kind] = set
					}
				}
				s.reachMemo[k] = merged
				return merged, true
			}
		}
	}
	res, ok := an.Reachability(src, hs)
	if !ok {
		return nil, false
	}
	s.reachMemo[k] = res.Sinks
	return res.Sinks, true
}

// compareIncremental is the incremental fast path of CompareWith for
// after-snapshots derived from s via Edit. Sources outside the blast
// radius provably produce an empty diff and are skipped without any BDD
// work; impacted sources run two small passes restricted to their blast
// set, which yield exactly the diff a full comparison would (flows
// outside the set cancel in the difference). ok=false means the caller
// must use the full path.
func (s *Snapshot) compareIncremental(after *Snapshot) ([]DifferentialFlows, bool) {
	if after == nil || after.baseline != s {
		return nil, false
	}
	impact, ok := after.impactSets()
	if !ok {
		return nil, false
	}
	a1, a2 := s.Analysis(), after.Analysis()
	enc := a1.Enc
	f := enc.F
	var out []DifferentialFlows
	for _, src := range a1.Sources() {
		bc, hit := impact[src]
		if !hit {
			continue
		}
		r1, ok1 := a1.Reachability(src, bc)
		r2, ok2 := a2.Reachability(src, bc)
		if !ok1 || !ok2 {
			continue
		}
		s1, _ := reach.Partition(r1.Sinks, f)
		s2, _ := reach.Partition(r2.Sinks, f)
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
	return out, true
}
