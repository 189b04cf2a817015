package core

import (
	"sort"
	"strings"

	"repro/internal/dataplane"
	"repro/internal/topo"
)

// Scenario is a typed snapshot overlay: the generalization of the old
// config-text-only Edit. A scenario can rewrite device configurations
// and/or fail network elements — links, whole nodes, individual BGP
// sessions — and Apply derives a new Snapshot from it. Pure-failure
// scenarios (no config edits) share the baseline's parse artifacts
// outright: only the simulation and the stages below it rerun, under
// scenario-aware content-addressed keys.
type Scenario struct {
	// ConfigEdits maps device name to replacement text; an empty string
	// removes the device file (the original Edit semantics).
	ConfigEdits map[string]string
	// LinksDown masks L3 adjacencies (canonical orientation; see
	// topo.Edge.Link). The interfaces stay configured and addressed — only
	// the adjacency disappears, as when a fiber is cut.
	LinksDown []topo.Link
	// NodesDown excludes devices from the simulation entirely, as if
	// powered off.
	NodesDown []string
	// SessionsDown holds individual BGP sessions down without touching
	// the underlying links.
	SessionsDown []dataplane.SessionKey
}

// Empty reports whether the scenario changes nothing.
func (sc Scenario) Empty() bool {
	return len(sc.ConfigEdits) == 0 && sc.suppression().Empty()
}

// PureFailure reports whether the scenario has no config edits, i.e. the
// parsed model is shared with the baseline verbatim.
func (sc Scenario) PureFailure() bool { return len(sc.ConfigEdits) == 0 }

// suppression is the scenario's dataplane-level failure overlay.
func (sc Scenario) suppression() dataplane.Suppression {
	return dataplane.Suppression{Links: sc.LinksDown, Nodes: sc.NodesDown, Sessions: sc.SessionsDown}
}

// ID renders a canonical, human-readable scenario identifier: sorted
// "kind:element" terms joined by "+" ("" for the empty scenario). Two
// scenarios failing the same elements get the same ID regardless of
// slice order.
func (sc Scenario) ID() string {
	var terms []string
	for name := range sc.ConfigEdits {
		terms = append(terms, "edit:"+name)
	}
	sup := sc.suppression().Canonical()
	for _, l := range sup.Links {
		terms = append(terms, "link:"+l.String())
	}
	for _, n := range sup.Nodes {
		terms = append(terms, "node:"+n)
	}
	for _, k := range sup.Sessions {
		terms = append(terms, "session:"+k.String())
	}
	sort.Strings(terms)
	return strings.Join(terms, "+")
}

// Apply derives a new snapshot with the scenario overlaid. The result
// shares this snapshot's pipeline and options. Pure-failure scenarios
// skip the parse stage entirely — the parsed network, device keys, and
// parse diagnostics are shared with the baseline — while scenarios with
// config edits go through the same overlay-parse path as Edit. A
// config-only scenario applied to a snapshot whose data plane is computed
// records that data plane as the new snapshot's edit base (see Edit).
// Failure suppressions compose: applying a scenario to an
// already-suppressed snapshot merges the overlays.
func (s *Snapshot) Apply(sc Scenario) *Snapshot {
	var ns *Snapshot
	if sc.PureFailure() {
		ns = &Snapshot{
			Net: s.Net, Warnings: s.Warnings,
			pl: s.pl, texts: s.texts, devKeys: s.devKeys,
			parseDiags: s.parseDiags, ctx: s.ctx,
		}
	} else {
		texts := make(map[string]string, len(s.texts)+len(sc.ConfigEdits))
		for n, t := range s.texts {
			texts[n] = t
		}
		for n, t := range sc.ConfigEdits {
			if t == "" {
				delete(texts, n)
			} else {
				texts[n] = t
			}
		}
		ns = LoadTextWithContext(s.context(), s.pl, texts)
		if sc.suppression().Empty() {
			ns.base = s.dp
		}
	}
	ns.opts = s.opts
	ns.opts.Suppress = s.opts.Suppress.Merge(sc.suppression())
	ns.bddBudget = s.bddBudget
	return ns
}

// SourceTexts returns a copy of the snapshot's device texts (name →
// configuration). Sweep executors use it to rebuild an equivalent base
// snapshot on a private pipeline.
func (s *Snapshot) SourceTexts() map[string]string {
	out := make(map[string]string, len(s.texts))
	for n, t := range s.texts {
		out[n] = t
	}
	return out
}

// DataPlaneOptions returns the snapshot's simulation options.
func (s *Snapshot) DataPlaneOptions() dataplane.Options { return s.opts }
