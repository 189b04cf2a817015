// Package dataplane generates the data plane from a parsed network: it is
// the imperative, fixed-point control-plane simulation of paper §4.1 that
// replaced the original Datalog model (Lesson 1).
//
// The engine implements the paper's three key mechanisms:
//
//   - Imperative evaluation (§4.1.1): protocols run as ordinary code in
//     explicitly ordered phases — connected/static, then IGP to convergence,
//     then BGP — with BGP session viability re-evaluated against the partial
//     data plane (TCP reachability through ACLs).
//   - Optimized, deterministic convergence (§4.1.2): per-protocol adjacency
//     graphs are colored and only nodes of one color exchange routes at a
//     time, and logical clocks break ties toward the oldest path. A naive
//     lockstep schedule is retained (ScheduleLockstep) to reproduce the
//     non-convergence patterns of Figure 1. Non-convergence is detected by
//     hashing RIB state and reported, never papered over.
//   - Optimized memory (§4.1.3): RIBs keep only current and previous
//     deltas; receivers pull a neighbor's delta and run the neighbor's
//     export policy, their own import policy, and the RIB merge in one
//     step, with no per-session queues. Route attributes are interned.
package dataplane

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/diag"
	"repro/internal/fib"
	"repro/internal/ip4"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Schedule selects the route-exchange schedule.
type Schedule int

// Schedules.
const (
	// ScheduleColored is the production schedule: graph-colored phases
	// plus logical-clock tie-breaking (§4.1.2).
	ScheduleColored Schedule = iota
	// ScheduleLockstep is the naive schedule where every node exchanges
	// with every neighbor in the same iteration — the one that oscillates
	// on Figure 1's patterns. Kept as the ablation baseline.
	ScheduleLockstep
)

// Options configure a simulation run.
type Options struct {
	Schedule Schedule
	// MaxIterations bounds each protocol's exchange loop; exceeding it
	// (without a detected cycle) reports non-convergence. 0 = default.
	MaxIterations int
	// FullStateConvergence checks convergence by comparing complete RIB
	// snapshots instead of delta emptiness (the memory-hungry classic
	// method, §4.1.3; ablation only).
	FullStateConvergence bool
	// Parallelism is the number of workers used within a color class and
	// for the per-node FIB/session stages. 0 (the default) means
	// runtime.GOMAXPROCS(0): parallel execution is the production default.
	// Pass 1 (or any negative value) to force serial execution.
	// Determinism holds for any value because same-color nodes share no
	// adjacency.
	Parallelism int
	// NowNanos supplies monotonic timestamps for schedule tracing. The
	// simulator itself never reads the wall clock (determinism, §4.1.2),
	// so tracing requires the caller to inject a time source — typically
	// func() int64 { return time.Since(base).Nanoseconds() }.
	NowNanos func() int64
	// Trace, when non-nil (and NowNanos is set), collects per-phase task
	// durations for the scheduling model (see SchedTrace.ModelSpeedup).
	// Tracing never alters simulation results.
	Trace *SchedTrace
	// Suppress is the failure-scenario overlay: links masked from the
	// inferred topology, nodes excluded from the run entirely, and BGP
	// sessions held down. Unlike the fields above it changes simulation
	// output, so it participates in the pipeline's content-addressed keys.
	Suppress Suppression
	// Scope, when non-empty, restricts the run to the destination prefixes
	// a question reads (see scope.go): routes are originated only for
	// prefixes that overlap the scope or contain a next-hop or session
	// address. The routes for those prefixes equal the full run's; every
	// other prefix is absent, and its non-convergence goes unseen. Like
	// Suppress it changes output and participates in cache keys.
	Scope Scope
}

func (o Options) maxIters() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 500
}

// workers resolves Parallelism to a concrete worker count.
func (o Options) workers() int {
	switch {
	case o.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	case o.Parallelism < 1:
		return 1
	default:
		return o.Parallelism
	}
}

// NodeState is the computed state of one device.
type NodeState struct {
	Device *config.Device
	VRFs   map[string]*VRFState

	// clock is the node's logical clock (§4.1.2). Clocks are per node, not
	// engine-global: the BGP comparator only ever compares arrival times of
	// routes within one node's own RIBs, so node-local counters preserve
	// tie-breaking exactly while making the drawn values — which persisted
	// artifacts record — deterministic for every worker
	// count and schedule interleaving (and keeping a hot shared cache line
	// out of every parallel merge).
	clock routing.Clock

	// vrfNames caches the sorted VRF names (VRF materialization is
	// complete after the engine is built), so per-iteration phases don't
	// re-sort.
	vrfNames []string

	// idx is the device's derived state (devIndex). It is nil on a
	// NodeState decoded from an artifact, whose RIBs Load stamped. A
	// NodeState that carries it holds ConnRIBs initConnected built, with
	// a cold run's clocks, so a run from this state may share both.
	idx *devIndex
}

// DefaultVRF returns the default VRF state.
func (n *NodeState) DefaultVRF() *VRFState { return n.VRFs[config.DefaultVRF] }

// VRFState holds per-VRF RIBs and the FIB.
type VRFState struct {
	Name    string
	ConnRIB *routing.RIB // connected + local
	StatRIB *routing.RIB
	OSPFRIB *routing.RIB
	BGPRIB  *routing.RIB
	Main    *routing.RIB
	FIB     *fib.FIB

	// published deltas, per protocol, read by neighbors (pull model).
	ospfPublished routing.Delta
	bgpPublished  routing.Delta

	// origination bookkeeping
	bgpOriginated map[routing.Key]bool
	ospfExternal  map[routing.Key]bool

	multipathEBGP bool
	multipathIBGP bool

	Sessions []*Session // BGP sessions with this VRF as local end
}

// Session is an established (or attempted) BGP session.
type Session struct {
	LocalNode  string
	LocalVRF   string
	LocalIP    ip4.Addr
	LocalAS    uint32
	PeerNode   string
	PeerVRF    string
	PeerIP     ip4.Addr
	PeerAS     uint32
	EBGP       bool
	Up         bool
	DownReason string
	// Config of the local end.
	Neighbor *config.BGPNeighbor
}

func (s *Session) String() string {
	state := "up"
	if !s.Up {
		state = "down(" + s.DownReason + ")"
	}
	return fmt.Sprintf("%s:%s <-> %s:%s [%s]", s.LocalNode, s.LocalIP, s.PeerNode, s.PeerIP, state)
}

// CycleInfo reports a detected routing oscillation: the protocol whose
// RIB state cycled and the iterations at which the repeat was observed
// (the partial result holds one state of the cycle).
type CycleInfo struct {
	Protocol        string
	FirstIteration  int // iteration whose state was seen again
	RepeatIteration int // iteration at which the repeat was detected
	StateHash       uint64
}

// Result is the computed data plane.
type Result struct {
	Network  *config.Network
	Topology *topo.Topology
	Nodes    map[string]*NodeState
	Pool     *routing.Pool

	Converged     bool
	Oscillation   bool       // a state cycle was detected (Figure 1 pathology)
	Cycle         *CycleInfo // populated when Oscillation is true
	Cancelled     bool       // the run's context was cancelled; state is partial
	IGPIterations int
	BGPIterations int
	OuterRounds   int
	Sessions      []*Session
	Warnings      []string
	// Suppress is the canonical failure overlay this result was computed
	// under (persisted, so cache hits re-apply the same mask).
	Suppress Suppression
	// Scope is the canonical query scope this result was computed under
	// (nil for a full run); a scoped result holds routes only for the
	// prefixes the scope keeps.
	Scope Scope
	// Diags are the run's structured failure-containment records:
	// recovered per-device panics (with the device quarantined from
	// later phases), iteration-budget trips, oscillations, cancellation.
	Diags []diag.Diagnostic
	// Quarantined lists devices whose simulation failed fatally; their
	// state is partial and they were excluded from later phases.
	Quarantined []string
}

// Degraded reports whether the result is partial or carries failure
// diagnostics; degraded results are never cached by the pipeline.
func (r *Result) Degraded() bool {
	return r.Cancelled || len(r.Diags) > 0
}

// DownNodes returns the sorted device names excluded from this run by the
// scenario overlay (suppressed nodes actually present in the network).
func (r *Result) DownNodes() []string {
	var out []string
	for _, n := range r.Suppress.Nodes {
		if _, ok := r.Network.Devices[n]; ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// DownSet returns DownNodes as a lookup set (nil when nothing is down).
func (r *Result) DownSet() map[string]bool {
	down := r.DownNodes()
	if len(down) == 0 {
		return nil
	}
	m := make(map[string]bool, len(down))
	for _, n := range down {
		m[n] = true
	}
	return m
}

// Engine runs the simulation.
type Engine struct {
	net     *config.Network
	topo    *topo.Topology
	opts    Options
	pool    *routing.Pool
	nodes   map[string]*NodeState
	res     *Result
	workers *workerPool // nil when running serially
	ctx     context.Context

	// names/nameIdx cache net.DeviceNames() (which sorts on every call)
	// plus each name's position, for phases that scatter into per-node
	// slots without locking.
	names   []string
	nameIdx map[string]int

	// connFrom maps each node whose connected state this run shares to
	// the base NodeState it shares it from (RunFrom).
	connFrom map[string]*NodeState

	// curStage labels the phase for diagnostics; set between phases
	// (never concurrently with a running phase).
	curStage diag.Stage

	// failMu guards failed and the result's Diags/Quarantined during
	// parallel phases. A device that panics is quarantined: recorded
	// here and excluded from every later phase.
	failMu sync.Mutex
	failed map[string]bool

	// ipOwner maps an interface IP to its owner, for session matching and
	// next-hop resolution.
	ipOwner map[ip4.Addr][]ifaceRef

	// sup is the canonical failure overlay for this run. Downed nodes are
	// excluded from e.names (and so from every phase, the IP-ownership
	// index, and the connected-prefix index); masked links and downed
	// nodes are removed from e.topo; sessDown holds the session keys
	// establishSessions forces down.
	sup      Suppression
	sessDown map[SessionKey]bool

	// scope is the canonical query scope and inScope its origination
	// filter (nil for a full run).
	scope   Scope
	inScope *scopeFilter
}

type ifaceRef struct {
	node, iface, vrf string
}

// newEngine creates an engine over the parsed network, taking from base
// (nil for none) what RunFrom lists.
func newEngine(ctx context.Context, base *Result, net *config.Network, opts Options) *Engine {
	sup := opts.Suppress.Canonical()
	e := &Engine{
		net:      net,
		opts:     opts,
		pool:     routing.NewPool(),
		nodes:    make(map[string]*NodeState),
		ctx:      ctx,
		failed:   make(map[string]bool),
		sup:      sup,
		scope:    opts.Scope.Canonical(),
		connFrom: make(map[string]*NodeState),
	}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if len(sup.Sessions) > 0 {
		e.sessDown = make(map[SessionKey]bool, len(sup.Sessions))
		for _, k := range sup.Sessions {
			e.sessDown[k] = true
		}
	}
	e.names = net.DeviceNames()
	if down := sup.DownSet(); down != nil {
		kept := e.names[:0]
		for _, n := range e.names {
			if !down[n] {
				kept = append(kept, n)
			}
		}
		e.names = kept
	}
	e.nameIdx = make(map[string]int, len(e.names))
	for i, n := range e.names {
		e.nameIdx[n] = i
	}
	e.topo = e.topologyFrom(base)
	e.ipOwner = make(map[ip4.Addr][]ifaceRef)
	for _, name := range e.names {
		d := net.Devices[name]
		ns := &NodeState{Device: d, VRFs: make(map[string]*VRFState)}
		if b := base.baseNode(name, d); b != nil {
			ns.idx = b.idx
			if !base.Degraded() {
				e.connFrom[name] = b
			}
		} else {
			ns.idx = newDevIndex(d)
		}
		e.nodes[name] = ns
		// Materialize every VRF state up front, so e.vrf is a pure map read
		// during parallel phases instead of a create-on-miss that would race.
		ns.vrfNames = ns.idx.vrfNames
		for _, vn := range ns.vrfNames {
			e.vrf(name, vn)
		}
		for _, o := range ns.idx.owned {
			e.ipOwner[o.addr] = append(e.ipOwner[o.addr], ifaceRef{node: name, iface: o.iface, vrf: o.vrf})
		}
	}
	e.inScope = e.newScopeFilter(e.scope)
	return e
}

// newVRFState builds a VRF's RIBs. Only the OSPF and BGP RIBs record
// deltas: neighbors pull those, while nothing ever takes a delta from the
// connected, static or main RIB, so recording one would only keep their
// change history alive for as long as the result is cached.
func (e *Engine) newVRFState(name string, clock *routing.Clock) *VRFState {
	vs := &VRFState{
		Name:          name,
		ConnRIB:       routing.NewRIBWithoutDelta(routing.ConnectedComparator, clock),
		StatRIB:       routing.NewRIBWithoutDelta(routing.MainComparator, clock),
		OSPFRIB:       routing.NewRIB(routing.OSPFComparator, clock),
		Main:          routing.NewRIBWithoutDelta(routing.MainComparator, clock),
		bgpOriginated: make(map[routing.Key]bool),
		ospfExternal:  make(map[routing.Key]bool),
	}
	vs.BGPRIB = routing.NewRIB(e.bgpCmp(vs), clock)
	return vs
}

// vrf returns (creating) the VRF state for node/vrfName. All creation
// happens in newEngine; afterwards this is a pure map read.
func (e *Engine) vrf(node, vrfName string) *VRFState {
	ns := e.nodes[node]
	if v, ok := ns.VRFs[vrfName]; ok {
		return v
	}
	v := e.newVRFState(vrfName, &ns.clock)
	ns.VRFs[vrfName] = v
	return v
}

// Run executes the full simulation and returns the data plane.
func Run(net *config.Network, opts Options) *Result {
	return RunFrom(context.Background(), nil, net, opts)
}

// RunContext executes the full simulation under a context: cancellation
// (or a deadline) is checked between phases and once per color-class
// round of the exchange loops, so large runs stop promptly with a
// partial, diagnosed result instead of running to completion. It is
// RunFrom with no base.
func RunContext(ctx context.Context, net *config.Network, opts Options) *Result {
	return RunFrom(ctx, nil, net, opts)
}

// cancelled checks the run's context; the first observation records the
// cancellation diagnostic and marks the result partial.
func (e *Engine) cancelled() bool {
	if e.ctx.Err() == nil {
		return false
	}
	if !e.res.Cancelled {
		e.res.Cancelled = true
		e.res.Diags = append(e.res.Diags, diag.Diagnostic{
			Stage: diag.StageDataPlane, Kind: diag.KindCancelled,
			Message: fmt.Sprintf("run cancelled during %s: %v", e.curStage, e.ctx.Err()),
		})
	}
	return true
}

// Run executes the simulation. A panic in a parallel per-device phase
// quarantines that device and the run continues; a panic anywhere else is
// recovered here and the partial result returned with a diagnostic —
// the process-level "always produce some answer" guarantee.
func (e *Engine) Run() (result *Result) {
	r := &Result{
		Network:  e.net,
		Topology: e.topo,
		Nodes:    e.nodes,
		Pool:     e.pool,
		Suppress: e.sup,
		Scope:    e.scope,
	}
	e.res = r

	if w := e.opts.workers(); w > 1 {
		e.workers = newWorkerPool(w)
		defer func() {
			e.workers.close()
			e.workers = nil
		}()
	}
	defer func() {
		if v := recover(); v != nil {
			r.Diags = append(r.Diags, diag.FromPanic(e.curStage, "", v))
			r.Converged = false
			result = r
		}
	}()

	e.curStage = diag.StageDataPlane
	e.initConnected()
	e.installStatics()

	const maxOuter = 8
	converged := true
	for round := 1; round <= maxOuter; round++ {
		r.OuterRounds = round
		if e.cancelled() {
			converged = false
			break
		}
		igpOK := e.runOSPF()
		e.buildFIBs()
		if e.cancelled() {
			converged = false
			break
		}
		e.curStage = diag.StageDataPlane
		e.establishSessions()
		bgpOK := e.runBGP()
		e.buildFIBs()
		e.curStage = diag.StageDataPlane
		converged = igpOK && bgpOK
		if e.cancelled() {
			converged = false
			break
		}
		// Re-check session viability against the new data plane; if any
		// session flips, the next round re-establishes sessions and
		// resimulates BGP (paper §4.1.1: "re-evaluate the viability of
		// such sessions at key points ... using partial data plane state").
		if !e.recheckSessions() {
			break
		}
		if round == maxOuter {
			e.warnf("session viability did not stabilize after %d rounds", maxOuter)
			converged = false
		}
	}
	sort.Strings(r.Quarantined) // parallel panics surface in arbitrary order
	r.Converged = converged && !r.Oscillation && len(r.Quarantined) == 0
	return r
}

// forEachVRF visits every configured VRF state in deterministic order.
func (e *Engine) forEachVRF(fn func(node string, d *config.Device, cv *config.VRF, vs *VRFState)) {
	for _, name := range e.names {
		e.forEachVRFOf(name, fn)
	}
}

// forEachVRFOf visits node's configured VRF states in sorted order. It is
// the per-node unit of the seed/reset phases, which fan whole nodes out
// over the worker pool (each node's VRF states are node-local).
func (e *Engine) forEachVRFOf(name string, fn func(node string, d *config.Device, cv *config.VRF, vs *VRFState)) {
	d := e.net.Devices[name]
	for _, vn := range e.nodes[name].vrfNames {
		if cv, ok := d.VRFs[vn]; ok {
			fn(name, d, cv, e.vrf(name, vn))
		}
	}
}

// runParallel executes fn over the given node names on the engine's
// persistent worker pool (serially when the pool is absent or the batch is
// trivial). Callers guarantee the nodes are independent (same color class,
// or a stage that only writes node-local state).
//
// Quarantined devices are excluded up front, and a panic in fn(node)
// quarantines that device — it is recorded as a diagnostic and skipped by
// every later phase — instead of killing the worker (and with it the
// process). The device's own state is partial; every other device's state
// is untouched because same-phase nodes share no mutable state.
func (e *Engine) runParallel(nodes []string, fn func(node string)) {
	if len(e.failed) > 0 {
		e.failMu.Lock()
		kept := make([]string, 0, len(nodes))
		for _, n := range nodes {
			if !e.failed[n] {
				kept = append(kept, n)
			}
		}
		e.failMu.Unlock()
		nodes = kept
	}
	guarded := func(node string) {
		defer func() {
			if v := recover(); v != nil {
				d := diag.FromPanic(e.curStage, node, v)
				e.failMu.Lock()
				e.failed[node] = true
				e.res.Quarantined = append(e.res.Quarantined, node)
				e.res.Diags = append(e.res.Diags, d)
				e.failMu.Unlock()
			}
		}()
		fn(node)
	}
	if e.workers == nil || len(nodes) <= 1 {
		for _, n := range nodes {
			guarded(n)
		}
		return
	}
	e.workers.run(nodes, guarded)
}

// warnf records a simulation warning. Phases are sequential, so the
// append needs no lock; parallel phases buffer their own warnings.
func (e *Engine) warnf(format string, args ...any) {
	e.res.Warnings = append(e.res.Warnings, fmt.Sprintf(format, args...))
}

// ownerOf returns the devices owning an IP within a VRF.
func (e *Engine) ownerOf(a ip4.Addr) []ifaceRef { return e.ipOwner[a] }

// connIface returns the active interface on node whose subnet contains a,
// restricted to the given VRF (devIndex.connIface).
func (e *Engine) connIface(node, vrfName string, a ip4.Addr) (string, bool) {
	return e.nodes[node].idx.connIface(vrfName, a)
}

// neighborFor returns the device at the far end of (node, iface) that owns
// the next-hop IP nh (or the unique far end when nh is zero).
func (e *Engine) neighborFor(node, iface string, nh ip4.Addr) string {
	edges := e.topo.EdgesFrom(node, iface)
	if nh == 0 {
		if len(edges) == 1 {
			return edges[0].Node2
		}
		return ""
	}
	for _, ed := range edges {
		rd := e.net.Devices[ed.Node2]
		ri := rd.Interfaces[ed.Iface2]
		if ri == nil {
			continue
		}
		for _, p := range ri.Addresses {
			if p.Addr == nh {
				return ed.Node2
			}
		}
	}
	return ""
}
