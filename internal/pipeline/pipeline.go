// Package pipeline models the four Batfish stages — Parse, DataPlane,
// FwdGraph, Analysis — as explicit stages with declared inputs. Each stage
// produces an artifact keyed by a content hash of exactly those inputs:
// per-device configuration bytes for parse, and the sorted set of
// device-model hashes plus the simulation options for everything
// downstream. Artifacts live in a bounded in-memory Store, so two
// snapshots that share N−K device configs reuse the K unchanged parsed
// models for free, and byte-identical snapshots dedupe all four stages.
//
// Correctness contract: a cached artifact is only ever reused when the
// stage inputs are byte-identical, and artifacts are treated as immutable
// by every consumer (the simulator and the analyses read, never write,
// parsed models and data-plane results). Determinism therefore holds by
// construction — caching can change how fast an answer arrives, never
// which answer.
//
// One data-plane artifact is not computed from its stage inputs alone: an
// edited snapshot's data plane may be spliced by dataplane.Update from
// the data plane of the snapshot it was edited from. It is stored under
// the same content-addressed key as a cold run of the edited network,
// which is sound because Update's result equals that cold run in
// Fingerprint, every node's state and every session; only its iteration
// counts, which describe the work done, differ. The cold path
// (Disabled(), and every store-less reference check) never splices.
//
// Graphs built by one Pipeline, caching or not, share a single
// header-space encoder, so analyses from different snapshots are directly
// comparable (CompareWith in internal/core diffs them without
// rebuilding). The shared BDD factory is unsynchronized and append-only:
// queries against snapshots of the same Pipeline must not run
// concurrently with each other, and the factory's node table grows
// monotonically over the Pipeline's lifetime. A caller that needs an
// isolated factory per snapshot loads each one on its own Disabled().
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/diskcache"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/reach"
)

// Config tunes a Pipeline.
type Config struct {
	// StoreCapacity bounds the artifact store (DefaultCapacity when 0).
	StoreCapacity int
	// ParseWorkers is the per-device parse parallelism; 0 means
	// runtime.GOMAXPROCS(0), negative forces serial parsing.
	ParseWorkers int
	// Disk, when non-nil, adds a persistent second tier under the
	// in-memory store for data-plane artifacts: lookups fall through
	// memory → disk → compute, and computes write through to both tiers.
	// Parse, graph and analysis artifacts stay memory-only. The cache may
	// be shared by several pipelines.
	Disk *diskcache.Cache
}

// StageTimes accumulates wall time for one stage, split by whether the
// artifact came from the store (warm) or was computed (cold). A parse run
// counts as warm only when every device hit the cache. DiskHits counts
// artifacts served from the persistent tier (a subset of warm activity:
// a disk hit is decoded, promoted to memory, and reused), and Updates the
// artifacts computed by dataplane.Update from an edit's base (a subset of
// cold runs); only the data-plane stage has either, so both are zero for
// the others.
type StageTimes struct {
	ColdNs   int64
	ColdRuns int64
	WarmNs   int64
	WarmRuns int64
	DiskHits int64
	Updates  int64
}

func (t *StageTimes) add(d time.Duration, warm bool) {
	if warm {
		t.WarmNs += d.Nanoseconds()
		t.WarmRuns++
	} else {
		t.ColdNs += d.Nanoseconds()
		t.ColdRuns++
	}
}

// Stats is a point-in-time view of a Pipeline's store counters and
// per-stage timings. Disk reports the persistent tier's counters (zero
// when none is configured).
type Stats struct {
	Store     StoreStats
	Disk      diskcache.Stats
	Parse     StageTimes
	DataPlane StageTimes
	Graph     StageTimes
	Analysis  StageTimes
}

// Pipeline runs the staged computation against one artifact store. The
// zero value is not usable; construct with New or Disabled.
type Pipeline struct {
	store        *Store           // nil when caching is disabled
	disk         *diskcache.Cache // nil when no persistent tier
	parseWorkers int

	encMu sync.Mutex
	enc   *hdr.Enc // lazily created, shared by all graphs of this Pipeline

	statMu sync.Mutex
	parse  StageTimes
	dp     StageTimes
	graph  StageTimes
	an     StageTimes
}

// New returns a caching Pipeline.
func New(cfg Config) *Pipeline {
	return &Pipeline{store: NewStore(cfg.StoreCapacity), parseWorkers: cfg.ParseWorkers, disk: cfg.Disk}
}

// Disabled returns a Pipeline with no artifact store: every stage
// recomputes, nothing is kept. Its graphs still share the Pipeline's
// encoder, so a fresh Disabled() per load gives each snapshot (and the
// scenarios applied to it) a private BDD factory. It is the reference
// implementation the caching path is validated against.
func Disabled() *Pipeline {
	return &Pipeline{}
}

// Enabled reports whether this Pipeline caches artifacts.
func (p *Pipeline) Enabled() bool { return p.store != nil }

// Stats returns current counters and timings.
func (p *Pipeline) Stats() Stats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return Stats{
		Store:     p.store.Stats(),
		Disk:      p.disk.Stats(),
		Parse:     p.parse,
		DataPlane: p.dp,
		Graph:     p.graph,
		Analysis:  p.an,
	}
}

func (p *Pipeline) record(stage *StageTimes, start time.Time, warm bool) {
	d := time.Since(start)
	p.statMu.Lock()
	stage.add(d, warm)
	p.statMu.Unlock()
}

// sharedEnc returns the Pipeline-wide encoder, creating it on first use.
func (p *Pipeline) sharedEnc() *hdr.Enc {
	p.encMu.Lock()
	defer p.encMu.Unlock()
	if p.enc == nil {
		p.enc = hdr.NewEnc(fwdgraph.ZoneBits + fwdgraph.WaypointBits)
	}
	return p.enc
}

// dpOptionsKey serializes the options that affect simulation output.
// Parallelism is deliberately excluded: results are deterministic across
// worker counts (PR-1's schedule guarantee), so runs differing only in
// worker count share artifacts. A failure-scenario suppression and a
// query scope are appended in canonical form only when non-empty, keeping
// every unscoped, pre-scenario key byte-identical (warm disk caches stay
// valid) and a scoped artifact apart from the full one.
func dpOptionsKey(o dataplane.Options) []byte {
	base := fmt.Sprintf("sched=%d;maxiter=%d;noclocks=%t;fullconv=%t",
		o.Schedule, o.MaxIterations, o.DisableClocks, o.FullStateConvergence)
	if sk := o.Suppress.CacheKey(); sk != "" {
		base += ";suppress=" + sk
	}
	if sk := o.Scope.CacheKey(); sk != "" {
		base += ";scope=" + sk
	}
	return []byte(base)
}

// DataPlaneKey is the content address of a data-plane run: the simulation
// options plus the sorted (hostname, device-model hash) set. It returns
// the zero Key when any device lacks a model hash, which disables caching
// for that snapshot.
func DataPlaneKey(net *config.Network, devKeys map[string]Key, opts dataplane.Options) Key {
	names := net.DeviceNames()
	sections := make([][]byte, 0, 2+2*len(names))
	sections = append(sections, []byte("dp"), dpOptionsKey(opts))
	for _, n := range names {
		dk, ok := devKeys[n]
		if !ok {
			return Key{}
		}
		sections = append(sections, []byte(n), dk[:])
	}
	return keyOf(sections...)
}

// DataPlane runs (or reuses) the simulation stage.
func (p *Pipeline) DataPlane(net *config.Network, devKeys map[string]Key, opts dataplane.Options) (*dataplane.Result, Key) {
	return p.DataPlaneCtx(context.Background(), net, devKeys, opts, nil)
}

// DataPlaneCtx is DataPlane with cooperative cancellation and an optional
// base: the data plane of the network net was edited from, computed under
// opts' simulation options. On a caching pipeline, after a store and a
// disk miss, a non-nil base is first handed to dataplane.Update, and the
// cold run happens only when Update declines. A Disabled() pipeline
// ignores base, so it stays the cold reference. Degraded results —
// cancelled, quarantined, or carrying any diagnostic — are returned with
// a zero Key and never stored: caching a partial simulation would let a
// transient failure masquerade as the truth for every later
// byte-identical snapshot.
func (p *Pipeline) DataPlaneCtx(ctx context.Context, net *config.Network, devKeys map[string]Key, opts dataplane.Options, base *dataplane.Result) (*dataplane.Result, Key) {
	start := time.Now()
	var k Key
	if p.store != nil {
		k = DataPlaneKey(net, devKeys, opts)
		if !k.IsZero() {
			if v, ok := p.store.Get(k); ok {
				res := v.(*dataplane.Result)
				p.record(&p.dp, start, true)
				return res, k
			}
			if res, ok := p.diskGetDataPlane(k, net); ok {
				p.statMu.Lock()
				p.dp.DiskHits++
				p.statMu.Unlock()
				p.record(&p.dp, start, true)
				return res, k
			}
		}
	}
	var res *dataplane.Result
	updated := false
	if p.store != nil && base != nil {
		res, updated = dataplane.Update(ctx, base, net, opts)
	}
	if updated {
		p.statMu.Lock()
		p.dp.Updates++
		p.statMu.Unlock()
	} else {
		res = dataplane.RunContext(ctx, net, opts)
	}
	if res.Degraded() {
		k = Key{}
	}
	if p.store != nil && !k.IsZero() {
		p.store.Put(k, res)
		p.diskPutDataPlane(k, res)
	}
	p.record(&p.dp, start, false)
	return res, k
}

// Graph builds (or reuses) the forwarding graph for a data plane on the
// Pipeline's shared encoder.
func (p *Pipeline) Graph(dp *dataplane.Result, dpKey Key) (*fwdgraph.Graph, Key) {
	return p.GraphCtx(context.Background(), dp, dpKey)
}

// GraphCtx is Graph with cooperative cancellation. A partial graph
// (construction stopped by the context) is returned with a zero Key and
// never cached.
func (p *Pipeline) GraphCtx(ctx context.Context, dp *dataplane.Result, dpKey Key) (*fwdgraph.Graph, Key) {
	start := time.Now()
	var k Key
	if p.store != nil && !dpKey.IsZero() {
		k = keyOf([]byte("graph"), dpKey[:])
		if v, ok := p.store.Get(k); ok {
			g := v.(*fwdgraph.Graph)
			p.record(&p.graph, start, true)
			return g, k
		}
	}
	g := fwdgraph.NewWithEncContext(ctx, dp, p.sharedEnc())
	if g.Cancelled {
		k = Key{}
	}
	if p.store != nil && !k.IsZero() {
		p.store.Put(k, g)
	}
	p.record(&p.graph, start, false)
	return g, k
}

// Analysis builds (or reuses) the compressed reachability analysis.
func (p *Pipeline) Analysis(g *fwdgraph.Graph, gKey Key) (*reach.Analysis, Key) {
	start := time.Now()
	var k Key
	if p.store != nil && !gKey.IsZero() {
		k = keyOf([]byte("analysis"), gKey[:])
		if v, ok := p.store.Get(k); ok {
			a := v.(*reach.Analysis)
			p.record(&p.an, start, true)
			return a, k
		}
	}
	a := reach.New(g)
	if p.store != nil && !k.IsZero() {
		p.store.Put(k, a)
	}
	p.record(&p.an, start, false)
	return a, k
}
