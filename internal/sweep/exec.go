package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/pipeline"
)

// classJob is one equivalence-class representative awaiting execution.
type classJob struct {
	id      string
	retried bool
}

// jobQueue is a mutex-guarded work queue. A channel would be simpler but
// cannot express requeue-after-crash without risking deadlock when every
// worker blocks on a full channel; a slice queue can always accept the
// retried job back.
type jobQueue struct {
	mu   sync.Mutex
	jobs []classJob
}

func (q *jobQueue) pop() (classJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		return classJob{}, false
	}
	j := q.jobs[0]
	q.jobs = q.jobs[1:]
	return j, true
}

func (q *jobQueue) push(j classJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
}

// outcome is one equivalence class's computed verdicts.
type outcome struct {
	class    string
	sources  []SourceVerdict
	degraded bool
}

// runtimeGrowth bounds a worker runtime's BDD factory: once it holds more
// than runtimeGrowth times the nodes the baseline check left in it, the
// worker rebuilds the runtime before its next class. The factory is
// append-only. A scoped class adds few nodes, so a scoped sweep rarely
// rebuilds; an unscoped class adds thousands, and without the bound a
// k=2 sweep's factory outgrew a 6 GB address space (EXPERIMENTS E13).
const runtimeGrowth = 4

// workerRT is one worker's private execution runtime: a base snapshot
// rebuilt from the plan's texts on its own pipeline.Disabled(), whose
// parsed model every scenario shares. The pipeline keeps no artifacts,
// since every class is a distinct scenario and nothing reads a class's
// data plane, graph or analysis again; its one BDD factory
// (unsynchronized, so never shared between workers) serves every class
// the worker runs until it passes limit nodes. The base answers the
// plan's question once when the runtime is built, to refuse a degraded
// baseline; each scenario then answers on its own.
type workerRT struct {
	base  *core.Snapshot
	limit int
}

// factorySize is the node count of the BDD factory every class of this
// runtime builds on.
func (w *workerRT) factorySize() int { return w.base.Graph().Enc.F.Size() }

func (p *Plan) newRT(ctx context.Context) (rt *workerRT, err error) {
	defer func() {
		if r := recover(); r != nil {
			rt, err = nil, fmt.Errorf("sweep: worker runtime build panicked: %v", r)
		}
	}()
	base := core.LoadTextWithContext(ctx, pipeline.Disabled(), p.texts)
	opts := p.opts
	// The monitored destinations scope every run of this runtime, the
	// baseline check included: a class reads only the flow to DstIPs (an
	// empty DstIPs leaves the runs unscoped). Workers saturate the machine
	// collectively, so each simulation runs serial and the sweep's
	// parallelism lives at the scenario level.
	opts.Scope = p.spec.DstIPs
	opts.Parallelism = -1
	opts.Trace, opts.NowNanos = nil, nil
	base.SetDataPlaneOptions(opts)
	if base.Reachability(p.params); base.Degraded() {
		return nil, fmt.Errorf("sweep: worker baseline degraded")
	}
	rt = &workerRT{base: base}
	rt.limit = runtimeGrowth * rt.factorySize()
	return rt, nil
}

// runClass executes one class representative. Panics — injected worker
// kills included — surface as errors so the caller can requeue the class
// on a fresh runtime.
func (w *workerRT) runClass(p *Plan, rep Scenario, id string) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = outcome{}, fmt.Errorf("sweep: class %s: panic: %v", id, r)
		}
	}()
	faults.Fire("sweep", id)
	snap := w.base.Apply(rep.overlay())
	flows := snap.Reachability(p.params)
	return outcome{class: id, sources: renderSources(p.sources, flows), degraded: snap.Degraded()}, nil
}

// verdictFor renders scenario idx's verdict from its class outcome; have
// is false when the class never completed (cancellation, a dead worker).
func (p *Plan) verdictFor(idx int, out outcome, have bool) Verdict {
	sc := p.scenarios[idx]
	id := sc.ID()
	v := Verdict{
		Scenario: id,
		Class:    p.classOf[idx],
		Executed: have && id == p.classOf[idx],
		Sources:  out.sources,
		Degraded: out.degraded || !have,
	}
	if have {
		v.Violations = p.violationsIn(out.sources)
	}
	return v
}

// executeClasses runs every class representative on the worker pool and
// returns the outcomes sorted by class ID. emit, when non-nil, receives
// each outcome as it completes (calls are serialized). On cancellation the
// completed outcomes are returned; missing classes are the caller's to
// degrade (assemble does).
func (p *Plan) executeClasses(ctx context.Context, emit func(outcome)) []outcome {
	var mu sync.Mutex // guards results and serializes emit
	var results []outcome
	deliver := func(out outcome) {
		mu.Lock()
		// Deferred so a panicking emit callback cannot leak the lock and
		// wedge every other worker's deliver.
		defer mu.Unlock()
		results = append(results, out)
		if emit != nil {
			emit(out)
		}
	}

	q := &jobQueue{}
	for _, id := range p.classIDs {
		q.push(classJob{id: id})
	}
	workers := min(p.spec.Workers, len(p.classIDs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The runtime-build and class-run paths recover internally; this
			// catches everything else (most plausibly a panicking emit
			// callback reached through deliver). The worker dies quietly:
			// classes it never delivered are missing from results, and
			// assemble degrades them — the same contract as cancellation.
			// The process must survive either way.
			defer func() { recover() }()
			var rt *workerRT
			for ctx.Err() == nil {
				job, ok := q.pop()
				if !ok {
					return
				}
				if rt == nil || rt.factorySize() > rt.limit {
					// Drop the old runtime before building the new one, so
					// the two factories need not fit in memory together.
					rt = nil
					var err error
					if rt, err = p.newRT(ctx); err != nil {
						if !job.retried {
							q.push(classJob{id: job.id, retried: true})
							continue
						}
						deliver(outcome{class: job.id, degraded: true})
						continue
					}
				}
				out, err := rt.runClass(p, p.classRep[job.id], job.id)
				if err != nil {
					// The runtime may hold a half-mutated factory; discard it
					// and retry the class once on a fresh one.
					rt = nil
					if !job.retried {
						q.push(classJob{id: job.id, retried: true})
						continue
					}
					out = outcome{class: job.id, degraded: true}
				}
				deliver(out)
			}
		}()
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].class < results[j].class })
	return results
}

// assemble builds the full Result from executed class outcomes. The
// baseline class is synthesized from the plan; classes with no outcome
// yield Degraded verdicts with no sources — exactly the cancellation
// semantics of Execute.
func (p *Plan) assemble(results []outcome) *Result {
	res := &Result{
		Enumerated: len(p.scenarios),
		Classes:    p.Classes(),
		Executed:   len(p.classIDs),
		Baseline:   p.baseline,
	}
	res.Pruned = res.Enumerated - res.Executed

	outcomes := make(map[string]outcome, len(results)+1)
	// The baseline class needs no execution: no failed element touches any
	// monitored flow, so the baseline verdicts are provably the scenario
	// verdicts.
	outcomes[""] = outcome{sources: p.baseline}
	for _, out := range results {
		outcomes[out.class] = out
	}

	res.Verdicts = make([]Verdict, len(p.scenarios))
	for i := range p.scenarios {
		out, have := outcomes[p.classOf[i]]
		v := p.verdictFor(i, out, have)
		if v.Violations > 0 {
			res.Violations++
		}
		if v.Degraded {
			res.Degraded = true
		}
		res.Verdicts[i] = v
	}
	return res
}

// Execute runs the plan's class representatives across the worker pool
// and assembles the full verdict set. emit, when non-nil, receives every
// scenario's verdict as soon as its class completes (members in canonical
// enumeration order; calls are serialized). Verdict contents are
// deterministic for any worker count — only the streaming order varies —
// and Result.Verdicts is always in canonical enumeration order.
//
// On cancellation the partial result is returned alongside ctx.Err();
// classes that never completed yield Degraded verdicts with no sources.
func (p *Plan) Execute(ctx context.Context, emit func(Verdict)) (*Result, error) {
	// Class → member scenario indices, in enumeration order.
	members := make(map[string][]int, len(p.classIDs)+1)
	for i, id := range p.classOf {
		members[id] = append(members[id], i)
	}
	var mu sync.Mutex // serializes verdict emission
	emitClass := func(out outcome) {
		if emit == nil {
			return
		}
		mu.Lock()
		for _, idx := range members[out.class] {
			emit(p.verdictFor(idx, out, true))
		}
		mu.Unlock()
	}

	emitClass(outcome{sources: p.baseline})
	results := p.executeClasses(ctx, emitClass)
	return p.assemble(results), ctx.Err()
}

// Run is the convenience wrapper: plan and execute in one call. The
// planning stage touches base's pipeline (callers holding a lock for that
// pipeline should use NewPlan/Execute separately so execution runs
// unlocked).
func Run(ctx context.Context, base *core.Snapshot, spec Spec) (*Result, error) {
	p, err := NewPlan(base, spec)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, nil)
}

// VerdictLess orders verdicts by scenario ID — the canonical order used
// when comparing verdict sets across runs.
func VerdictLess(a, b Verdict) bool { return a.Scenario < b.Scenario }

// SortVerdicts sorts a verdict slice into canonical order in place.
func SortVerdicts(vs []Verdict) {
	sort.Slice(vs, func(i, j int) bool { return VerdictLess(vs[i], vs[j]) })
}
