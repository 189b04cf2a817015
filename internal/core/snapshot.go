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
	texts   map[string]string       // source texts (name → config), for Edit
	devKeys map[string]pipeline.Key // hostname → parse-artifact key

	opts dataplane.Options
	// base is the data plane of the snapshot this one was edited from,
	// when it was already computed: the starting point the pipeline hands
	// to dataplane.Update. It is dropped once dp is computed.
	base  *dataplane.Result
	dp    *dataplane.Result
	dpKey pipeline.Key
	g     *fwdgraph.Graph
	gKey  pipeline.Key
	an    *reach.Analysis
	tr    *traceroute.Engine

	// reachMemo caches per-(source, header-space) sink sets so repeated
	// questions skip recomputing them.
	reachMemo map[memoKey]map[string]bdd.Ref

	// ctx governs every stage this snapshot runs; nil means Background.
	ctx context.Context
	// parseDiags are the containment diagnostics from the parse stage
	// (quarantined devices, cancellation).
	parseDiags []diag.Diagnostic
	// qDiags collects question-stage diagnostics (recovered panics, budget
	// exhaustion) as questions run.
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

// DetectDialect guesses the configuration dialect from text: Junos
// configurations are "set ..." command lists, IOS ones are hierarchical.
func DetectDialect(text string) string { return pipeline.DetectDialect(text) }

// LoadText parses a map of filename (or hostname) to configuration text
// using the default shared pipeline.
func LoadText(texts map[string]string) *Snapshot {
	return LoadTextWith(defaultPipeline, texts)
}

// LoadTextWith parses texts with an explicit pipeline. Devices parse in
// parallel; the resulting model is deterministic and ordered by name.
func LoadTextWith(pl *pipeline.Pipeline, texts map[string]string) *Snapshot {
	return LoadTextWithContext(context.Background(), pl, texts)
}

// LoadTextWithContext is LoadTextWith under a context. The context governs
// the parse stage now and every later stage this snapshot runs (data
// plane, graph, analysis): when it expires, in-flight stages stop at their
// next checkpoint and the snapshot degrades to partial results with
// cancellation diagnostics instead of blocking. A device whose parser
// panics is quarantined — excluded from the network, reported via Diags —
// and the rest of the snapshot stays usable.
func LoadTextWithContext(ctx context.Context, pl *pipeline.Pipeline, texts map[string]string) *Snapshot {
	if pl == nil {
		pl = pipeline.Disabled()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	net, warns, devKeys, diags := pl.ParseCtx(ctx, texts)
	own := make(map[string]string, len(texts))
	for n, t := range texts {
		own[n] = t
	}
	s := &Snapshot{Net: net, Warnings: warns, pl: pl, texts: own, devKeys: devKeys,
		parseDiags: diags}
	if ctx != context.Background() {
		s.ctx = ctx
	}
	return s
}

// WithContext rebinds the context used by stages this snapshot has not run
// yet and returns the snapshot for chaining. Background (and nil) unbinds:
// stages then run uncancellable and shared-cache-eligible again.
func (s *Snapshot) WithContext(ctx context.Context) *Snapshot {
	if ctx == nil || ctx == context.Background() {
		s.ctx = nil
	} else {
		s.ctx = ctx
	}
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
// budget exhaustion, non-convergence, cancellation), graph/analysis
// cancellation, then question-stage recoveries. The slice is a copy.
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
	if s.an != nil && s.an.Cancelled {
		out = append(out, diag.Diagnostic{Stage: diag.StageAnalysis, Kind: diag.KindCancelled,
			Message: "reachability fixed point cancelled; sets are under-approximate"})
	}
	s.qMu.Lock()
	out = append(out, s.qDiags...)
	s.qMu.Unlock()
	return out
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

// Cancelled reports whether any stage observed an expired context.
func (s *Snapshot) Cancelled() bool {
	if s.dp != nil && s.dp.Cancelled {
		return true
	}
	if s.g != nil && s.g.Cancelled {
		return true
	}
	if s.an != nil && s.an.Cancelled {
		return true
	}
	return diag.Has(s.parseDiags, diag.KindCancelled)
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
// options, so unchanged devices reuse their parsed models and the stages
// below parse recompute under content-addressed keys. The edited snapshot
// is independent of this one: its questions answer exactly as on a fresh
// load of the merged texts. When this snapshot's data plane is already
// computed and the pipeline caches, the edited data plane starts from it:
// an edit that changes only static routes and BGP network statements
// re-simulates just the prefixes it touches (dataplane.Update), with the
// same answer a cold run gives.
func (s *Snapshot) Edit(changes map[string]string) *Snapshot {
	return s.Apply(Scenario{ConfigEdits: changes})
}

// Pipeline returns the pipeline this snapshot is bound to (nil for
// directly constructed Snapshot literals).
func (s *Snapshot) Pipeline() *pipeline.Pipeline { return s.pl }

// SetDataPlaneOptions overrides simulation options (before the first
// DataPlane call). The edit base, computed under the old options, is
// dropped.
func (s *Snapshot) SetDataPlaneOptions(o dataplane.Options) { s.opts, s.base = o, nil }

// DataPlane computes (once) and returns the data plane.
func (s *Snapshot) DataPlane() *dataplane.Result {
	if s.dp == nil {
		if s.pl != nil {
			s.dp, s.dpKey = s.pl.DataPlaneCtx(s.context(), s.Net, s.devKeys, s.opts, s.base)
		} else {
			s.dp = dataplane.RunContext(s.context(), s.Net, s.opts)
		}
		s.base = nil
	}
	return s.dp
}

// Graph returns the forwarding graph, building the data plane if needed.
func (s *Snapshot) Graph() *fwdgraph.Graph {
	if s.g == nil {
		if s.pl != nil {
			s.g, s.gKey = s.pl.GraphCtx(s.context(), s.DataPlane(), s.dpKey)
		} else {
			s.g = fwdgraph.NewContext(s.context(), s.DataPlane())
		}
		if s.bddBudget > 0 {
			s.g.Enc.F.SetNodeBudget(s.bddBudget)
		}
	}
	return s.g
}

// Analysis returns the BDD reachability analysis (graph-compressed).
func (s *Snapshot) Analysis() *reach.Analysis {
	if s.an == nil {
		switch {
		case s.ctx != nil:
			// A context-bound analysis carries mutable cancellation state,
			// so it must be private to this snapshot: build fresh and skip
			// the shared artifact store entirely.
			s.an = reach.New(s.Graph()).WithContext(s.ctx)
		case s.pl != nil:
			s.an, _ = s.pl.Analysis(s.Graph(), s.gKey)
		default:
			s.an = reach.New(s.Graph())
		}
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
