// Package core orchestrates the four-stage Batfish pipeline (paper §2) and
// provides the question layer on top of it: configuration parsing into the
// vendor-independent model, data plane generation, BDD-based verification,
// and violation explanation with carefully chosen examples.
//
// Since PR 2 the stages themselves live in internal/pipeline: every
// Snapshot is bound to a pipeline.Pipeline whose content-addressed
// artifact store dedupes parse/data-plane/graph/analysis work across
// snapshots. Loading through the package-level functions uses a shared
// process-wide pipeline; LoadTextWith and friends accept an explicit one
// (pass pipeline.Disabled() for the uncached reference behavior).
//
// The exported façade for downstream users is package batfish at the
// repository root, which re-exports these types.
package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/diag"
	"repro/internal/fwdgraph"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/traceroute"
)

// defaultPipeline backs the package-level loaders, so independent
// snapshots in one process share parsed models and downstream artifacts.
var defaultPipeline = pipeline.New(pipeline.Config{})

// DefaultPipeline returns the process-wide pipeline used by LoadText,
// LoadDir, and LoadGenerated.
func DefaultPipeline() *pipeline.Pipeline { return defaultPipeline }

// CacheStats reports the default pipeline's artifact-store counters and
// per-stage timings.
func CacheStats() pipeline.Stats { return defaultPipeline.Stats() }

// Snapshot is one network snapshot moving through the pipeline.
type Snapshot struct {
	Net      *config.Network
	Warnings []config.Warning

	pl      *pipeline.Pipeline
	texts   map[string]string                 // source texts (name → config), for Edit
	files   map[string]pipeline.ParseArtifact // file name → parse artifact, for Edit
	devKeys map[string]pipeline.Key           // hostname → parse-artifact key

	opts dataplane.Options
	// base is the data plane of the snapshot this one was derived from,
	// when it was already computed: the starting point the pipeline hands
	// to dataplane.Update and dataplane.RunFrom. It is dropped once dp is
	// computed.
	base  *dataplane.Result
	dp    *dataplane.Result
	dpKey pipeline.Key
	// baseG is the graph of the snapshot this one was derived from, when
	// it was already built: the fragments fwdgraph.Update may reuse. It is
	// dropped once g is built.
	baseG *fwdgraph.Graph
	g     *fwdgraph.Graph
	gKey  pipeline.Key
	an    *reach.Analysis
	tr    *traceroute.Engine

	// reachMemo caches per-(source, header-space) sink sets so repeated
	// questions skip recomputing them.
	reachMemo map[memoKey]map[string]bdd.Ref

	// ctx governs every stage this snapshot runs and every fixed point its
	// questions run; nil means Background.
	ctx context.Context
	// parseDiags are the containment diagnostics from the parse stage
	// (quarantined devices, cancellation).
	parseDiags []diag.Diagnostic
	// qDiags collects question-stage diagnostics (recovered panics, budget
	// exhaustion, a deadline expired during a question) as questions run.
	qMu    sync.Mutex
	qDiags []diag.Diagnostic
	// bddBudget, when positive, bounds the BDD factory's node count for
	// this snapshot's analyses (applied when the graph is built).
	bddBudget int
}

type memoKey struct {
	src reach.SourceLoc
	hs  bdd.Ref
}

// LoadText parses a map of filename (or hostname) to configuration text
// using the default shared pipeline.
func LoadText(texts map[string]string) *Snapshot {
	return LoadTextWith(defaultPipeline, texts)
}

// LoadTextWith parses texts with an explicit pipeline. The resulting
// model is deterministic and ordered by name.
func LoadTextWith(pl *pipeline.Pipeline, texts map[string]string) *Snapshot {
	return LoadTextWithContext(context.Background(), pl, texts)
}

// LoadTextWithContext is LoadTextWith under a context. The context governs
// the parse stage now and everything this snapshot runs later (data plane,
// graph, and the reachability fixed points of its questions): when it
// expires, in-flight work stops at its next checkpoint and the snapshot
// degrades to partial results with cancellation diagnostics instead of
// blocking. A device whose parser panics is quarantined — excluded from
// the network, reported via Diags — and the rest of the snapshot stays
// usable.
func LoadTextWithContext(ctx context.Context, pl *pipeline.Pipeline, texts map[string]string) *Snapshot {
	if pl == nil {
		pl = pipeline.Disabled()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	own := make(map[string]string, len(texts))
	for n, t := range texts {
		own[n] = t
	}
	return load(ctx, pl, own, nil)
}

// load parses texts, which the new snapshot keeps, reusing base's
// artifacts for the files whose text they were parsed from (see
// pipeline.ParseCtx).
func load(ctx context.Context, pl *pipeline.Pipeline, texts map[string]string, base map[string]pipeline.ParseArtifact) *Snapshot {
	r := pl.ParseCtx(ctx, texts, base)
	return &Snapshot{Net: r.Net, Warnings: r.Warnings, pl: pl, texts: texts, files: r.Files,
		devKeys: r.DevKeys, parseDiags: r.Diags, ctx: ctx}
}

// WithContext rebinds the context that governs the stages this snapshot
// has not run yet and the fixed points of the questions asked from now
// on, and returns the snapshot for chaining; nil unbinds. The context is
// an argument of each stage and pass, never stored in an artifact, so
// every clean artifact stays shareable through the pipeline's store.
func (s *Snapshot) WithContext(ctx context.Context) *Snapshot {
	s.ctx = ctx
	return s
}

func (s *Snapshot) context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// SetBDDNodeBudget bounds the BDD factory node count for this snapshot's
// symbolic analyses; 0 removes the bound. Exceeding the budget aborts the
// offending question with a "Budget exceeded" diagnostic instead of
// letting the factory grow without limit. The budget attaches to the
// graph's factory, which every pipeline shares across the snapshots it
// loads (and the scenarios applied to them) — load the snapshot on a
// fresh pipeline.Disabled() of its own when isolation matters.
func (s *Snapshot) SetBDDNodeBudget(n int) {
	s.bddBudget = n
	if s.g != nil {
		s.g.Enc.F.SetNodeBudget(n)
	}
}

func (s *Snapshot) addDiag(d diag.Diagnostic) {
	s.qMu.Lock()
	s.qDiags = append(s.qDiags, d)
	s.qMu.Unlock()
}

// Diags returns every containment diagnostic accumulated so far, in stage
// order: parse (quarantines, cancellation), data plane (quarantines,
// budget exhaustion, non-convergence, cancellation), graph cancellation,
// then what questions recorded as they ran: recovered panics and budget
// trips, and a deadline that expired during a reachability question. The
// slice is a copy.
func (s *Snapshot) Diags() []diag.Diagnostic {
	var out []diag.Diagnostic
	out = append(out, s.parseDiags...)
	if s.dp != nil {
		out = append(out, s.dp.Diags...)
	}
	if s.g != nil && s.g.Cancelled {
		out = append(out, diag.Diagnostic{Stage: diag.StageGraph, Kind: diag.KindCancelled,
			Message: "forwarding graph construction cancelled; graph covers a device prefix"})
	}
	s.qMu.Lock()
	out = append(out, s.qDiags...)
	s.qMu.Unlock()
	return out
}

// cut reports whether ctx has expired, so that a fixed point just run
// under it may have stopped early with under-approximate sets. The first
// time it does, cut records the analysis-stage cancellation diagnostic,
// which says the deadline expired during a question, not that a pass
// stopped early: the sets may still be complete, but nothing computed
// under an expired context is memoized.
func (s *Snapshot) cut(ctx context.Context) bool {
	if ctx.Err() == nil {
		return false
	}
	s.qMu.Lock()
	defer s.qMu.Unlock()
	if !diag.Has(s.qDiags, diag.KindCancelled) {
		s.qDiags = append(s.qDiags, diag.Diagnostic{Stage: diag.StageAnalysis, Kind: diag.KindCancelled,
			Message: "deadline expired during a reachability question; sets may be under-approximate"})
	}
	return true
}

// Quarantined returns the sorted device names excluded from this snapshot
// by failure containment: parse-stage quarantines plus devices the data
// plane simulation isolated after a panic.
func (s *Snapshot) Quarantined() []string {
	seen := make(map[string]bool)
	for _, d := range s.parseDiags {
		if d.Kind == diag.KindQuarantine && d.Device != "" {
			seen[d.Device] = true
		}
	}
	if s.dp != nil {
		for _, n := range s.dp.Quarantined {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Degraded reports whether any stage produced less than the full answer —
// cancellation, quarantined devices, budget exhaustion, or a recovered
// panic. Degraded results are still usable (healthy devices answer
// questions) but are never cached by the pipeline.
func (s *Snapshot) Degraded() bool {
	return len(s.Diags()) > 0
}

// Cancelled reports whether any stage observed an expired context, or a
// question ended with its context expired.
func (s *Snapshot) Cancelled() bool {
	if s.dp != nil && s.dp.Cancelled {
		return true
	}
	if s.g != nil && s.g.Cancelled {
		return true
	}
	s.qMu.Lock()
	defer s.qMu.Unlock()
	return diag.Has(s.parseDiags, diag.KindCancelled) || diag.Has(s.qDiags, diag.KindCancelled)
}

// LoadDir reads every *.cfg / *.conf / *.txt file in dir as one device.
func LoadDir(dir string) (*Snapshot, error) {
	return LoadDirWith(defaultPipeline, dir)
}

// LoadDirWith is LoadDir with an explicit pipeline.
func LoadDirWith(pl *pipeline.Pipeline, dir string) (*Snapshot, error) {
	return LoadDirWithContext(context.Background(), pl, dir)
}

// LoadDirWithContext is LoadDirWith under a context (see
// LoadTextWithContext for the containment semantics).
func LoadDirWithContext(ctx context.Context, pl *pipeline.Pipeline, dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	texts := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".cfg", ".conf", ".txt":
		default:
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		texts[e.Name()] = string(b)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("core: no configuration files in %s", dir)
	}
	return LoadTextWithContext(ctx, pl, texts), nil
}

// LoadGenerated wraps a generated snapshot (benchmarks and examples),
// routing its device texts through the default pipeline so generated
// networks participate in artifact caching and Edit.
func LoadGenerated(snap *netgen.Snapshot) *Snapshot {
	return LoadGeneratedWith(defaultPipeline, snap)
}

// LoadGeneratedWith is LoadGenerated with an explicit pipeline.
func LoadGeneratedWith(pl *pipeline.Pipeline, snap *netgen.Snapshot) *Snapshot {
	return LoadGeneratedWithContext(context.Background(), pl, snap)
}

// LoadGeneratedWithContext is LoadGeneratedWith under a context (see
// LoadTextWithContext for the containment semantics).
func LoadGeneratedWithContext(ctx context.Context, pl *pipeline.Pipeline, snap *netgen.Snapshot) *Snapshot {
	texts := make(map[string]string, len(snap.Devices))
	for _, dt := range snap.Devices {
		texts[dt.Hostname] = dt.Text
	}
	return LoadTextWithContext(ctx, pl, texts)
}

// Edit derives a new snapshot by overlaying config changes (name → new
// text; an empty string removes the device file). It is the config-edit
// special case of Apply: the result shares this snapshot's pipeline and
// options; every file whose text is unchanged keeps this snapshot's
// parsed model (the same pointer, with no parse), and the stages below
// parse recompute under content-addressed keys. The edited snapshot
// is independent of this one: its questions answer exactly as on a fresh
// load of the merged texts. When this snapshot's data plane is already
// computed and the pipeline caches, the edited data plane starts from it:
// an edit that changes only static routes and BGP network statements
// re-simulates just the prefixes it touches (dataplane.Update), with the
// same answer a cold run gives.
func (s *Snapshot) Edit(changes map[string]string) *Snapshot {
	return s.Apply(Scenario{ConfigEdits: changes})
}

// Pipeline returns the pipeline this snapshot is bound to. A directly
// built Snapshot literal gets its own pipeline.Disabled() on first use:
// its stages run cold, on a private encoder.
func (s *Snapshot) Pipeline() *pipeline.Pipeline {
	if s.pl == nil {
		s.pl = pipeline.Disabled()
	}
	return s.pl
}

// SetDataPlaneOptions overrides simulation options (before the first
// DataPlane call). The base, computed under the old options, is
// dropped.
func (s *Snapshot) SetDataPlaneOptions(o dataplane.Options) { s.opts, s.base = o, nil }

// DataPlane computes (once) and returns the data plane.
func (s *Snapshot) DataPlane() *dataplane.Result { return s.dataPlane(s.context()) }

// Graph returns the forwarding graph, building the data plane if needed.
func (s *Snapshot) Graph() *fwdgraph.Graph { return s.graph(s.context()) }

// Analysis returns the BDD reachability analysis (graph-compressed),
// through the pipeline's artifact store like every other stage.
func (s *Snapshot) Analysis() *reach.Analysis { return s.analysis(s.context()) }

// dataPlane, graph and analysis are the stages under an explicit context:
// the snapshot's own for its exported accessors, a comparison's receiver's
// for the candidate of CompareWith.
func (s *Snapshot) dataPlane(ctx context.Context) *dataplane.Result {
	if s.dp == nil {
		s.dp, s.dpKey = s.Pipeline().DataPlaneCtx(ctx, s.Net, s.devKeys, s.opts, s.base)
		s.base = nil
	}
	return s.dp
}

func (s *Snapshot) graph(ctx context.Context) *fwdgraph.Graph {
	if s.g == nil {
		s.g, s.gKey = s.Pipeline().GraphCtx(ctx, s.dataPlane(ctx), s.dpKey, s.baseG)
		s.baseG = nil
		if s.bddBudget > 0 {
			s.g.Enc.F.SetNodeBudget(s.bddBudget)
		}
	}
	return s.g
}

func (s *Snapshot) analysis(ctx context.Context) *reach.Analysis {
	if s.an == nil {
		s.an, _ = s.Pipeline().Analysis(s.graph(ctx), s.gKey)
	}
	return s.an
}

// Traceroute returns the concrete engine.
func (s *Snapshot) Traceroute() *traceroute.Engine {
	if s.tr == nil {
		s.tr = traceroute.New(s.DataPlane())
	}
	return s.tr
}

// HostFacing reports the source locations Batfish scopes "all pairs"
// queries to by default (paper §4.4.2): interfaces that likely face hosts
// or the external world — broad subnets with no discovered remote end —
// rather than inter-router links.
func (s *Snapshot) HostFacing() []reach.SourceLoc {
	dp := s.DataPlane()
	var out []reach.SourceLoc
	for _, name := range s.Net.DeviceNames() {
		d := s.Net.Devices[name]
		for _, in := range d.InterfaceNames() {
			i := d.Interfaces[in]
			if !i.Active || len(i.Addresses) == 0 {
				continue
			}
			p, _ := i.Primary()
			if p.Len >= 31 || p.Len == 0 {
				continue // p2p links and loopbacks are not host-facing
			}
			if len(dp.Topology.EdgesFrom(name, in)) > 0 {
				continue // we see the remote end: inter-router link
			}
			if p.Len < 16 {
				continue // implausibly broad for a host subnet
			}
			out = append(out, reach.SourceLoc{Device: name, Iface: in})
		}
	}
	return out
}
