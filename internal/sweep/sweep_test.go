package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
)

// fabricTexts renders a 10-device Clos fabric (2 spines, 2 pods, 2 aggs
// and 2 ToRs per pod) as hostname → config text.
func fabricTexts(t testing.TB, name string) map[string]string {
	t.Helper()
	gen := netgen.Fabric(netgen.FabricParams{Name: name, Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	return texts
}

// monitored picks the sweep's monitored flows: the host-facing sources on
// one ToR, destined to another ToR's host subnet. The spec's blast-radius
// pruning lives or dies by this scoping.
func monitored(t testing.TB, base *core.Snapshot, srcTor, dstTor string) ([]reach.SourceLoc, ip4.Prefix) {
	t.Helper()
	var srcs []reach.SourceLoc
	for _, src := range base.HostFacing() {
		if src.Device == srcTor {
			srcs = append(srcs, src)
		}
	}
	if len(srcs) == 0 {
		t.Fatalf("no host-facing sources on %s", srcTor)
	}
	d := base.Net.Devices[dstTor]
	if d == nil {
		t.Fatalf("no device %s", dstTor)
	}
	for _, in := range d.InterfaceNames() {
		if strings.HasPrefix(in, "host") {
			p := d.Interfaces[in].Addresses[0]
			return srcs, ip4.Prefix{Addr: p.Addr, Len: p.Len}.Canonical()
		}
	}
	t.Fatalf("no host interface on %s", dstTor)
	return nil, ip4.Prefix{}
}

// coldVerdicts recomputes one scenario from scratch: fresh disabled
// pipeline (no cache, its own BDD factory), full parse and simulation.
// This is the ground truth the sweep's pruned and executed answers are
// checked against.
func coldVerdicts(t testing.TB, texts map[string]string, sc Scenario, srcs []reach.SourceLoc, dst ip4.Prefix) []SourceVerdict {
	t.Helper()
	base := core.LoadTextWith(pipeline.Disabled(), texts)
	snap := base.Apply(sc.overlay())
	flows := snap.Reachability(core.ReachabilityParams{Sources: srcs, DstIPs: []ip4.Prefix{dst}})
	if snap.Degraded() {
		t.Fatalf("cold run of %s degraded", sc.ID())
	}
	return renderSources(srcs, flows)
}

func sameSources(a, b []SourceVerdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSweepK1ExhaustiveIdentity runs a full k=1 sweep over every element
// kind and checks EVERY scenario's verdict — executed representatives and
// pruned class members alike — against an independent cold recomputation.
// This is the correctness core of the equivalence-class pruning: a pruned
// scenario's stamped verdict must be indistinguishable from having run it.
// With one worker, a single runtime (one base snapshot, one BDD factory)
// serves every class in turn, so the cold replays also check that no
// class's answer depends on the classes that ran before it.
func TestSweepK1ExhaustiveIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-verifies every scenario; skipped in -short")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testSweepK1ExhaustiveIdentity(t, workers)
		})
	}
}

func testSweepK1ExhaustiveIdentity(t *testing.T, workers int) {
	texts := fabricTexts(t, "sw")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "sw-p01-tor01", "sw-p01-tor02")

	plan, err := NewPlan(base, Spec{
		K: 1, Links: true, Nodes: true, Sessions: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("sweep degraded")
	}
	// One runtime must serve enough classes in turn for state carried
	// from class to class to show: more than 16.
	if workers == 1 && res.Executed <= 16 {
		t.Fatalf("executed %d classes on one worker, want more than 16", res.Executed)
	}
	if res.Enumerated != len(res.Verdicts) || res.Enumerated == 0 {
		t.Fatalf("enumerated %d, verdicts %d", res.Enumerated, len(res.Verdicts))
	}
	// Intra-pod monitored traffic leaves the spines and the other pod
	// outside the cone, so real pruning must happen.
	if res.Pruned == 0 {
		t.Fatal("no scenarios pruned; cone classification is not engaging")
	}
	if res.Executed+res.Pruned != res.Enumerated {
		t.Fatalf("executed %d + pruned %d != enumerated %d", res.Executed, res.Pruned, res.Enumerated)
	}
	// Some scenario must break the monitored flows (e.g. downing the
	// source ToR), and the baseline itself must deliver.
	for _, sv := range res.Baseline {
		if !sv.Delivered {
			t.Fatalf("baseline flow %s:%s not delivered", sv.Device, sv.Iface)
		}
	}
	if res.Violations == 0 {
		t.Fatal("k=1 sweep of a fabric must surface violations (source ToR down)")
	}

	prunedChecked := 0
	for _, v := range res.Verdicts {
		sc := Scenario{}
		for _, id := range strings.Split(v.Scenario, "+") {
			sc.Elements = append(sc.Elements, elementByID(t, plan, id))
		}
		want := coldVerdicts(t, texts, sc, srcs, dst)
		if !sameSources(v.Sources, want) {
			t.Errorf("scenario %s (executed=%v class=%q): sweep verdict differs from cold run\n got %+v\nwant %+v",
				v.Scenario, v.Executed, v.Class, v.Sources, want)
		}
		if !v.Executed {
			prunedChecked++
		}
	}
	if prunedChecked != res.Pruned {
		t.Errorf("checked %d pruned scenarios, result claims %d", prunedChecked, res.Pruned)
	}
}

// elementByID reverses Element.ID over the plan's enumerated universe.
func elementByID(t testing.TB, p *Plan, id string) Element {
	t.Helper()
	for _, sc := range p.scenarios {
		for _, el := range sc.Elements {
			if el.ID() == id {
				return el
			}
		}
	}
	t.Fatalf("no element %q in plan", id)
	return Element{}
}

// TestSweepK2ProjectionStamping checks the k=2 classification rule: a
// pair with one out-of-cone element must land in the class of its k=1
// in-cone projection and carry that projection's verdicts, and a sample
// of those stamped pairs must match cold recomputation.
func TestSweepK2ProjectionStamping(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-verifies sampled pairs; skipped in -short")
	}
	texts := fabricTexts(t, "s2")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "s2-p01-tor01", "s2-p01-tor02")

	plan, err := NewPlan(base, Spec{
		K: 2, Nodes: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 node singles + 45 pairs.
	if plan.Enumerated() != 55 {
		t.Fatalf("enumerated %d, want 55", plan.Enumerated())
	}
	res, err := plan.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]Verdict, len(res.Verdicts))
	for _, v := range res.Verdicts {
		byID[v.Scenario] = v
	}
	projected, checked := 0, 0
	for i, sc := range plan.scenarios {
		if len(sc.Elements) != 2 {
			continue
		}
		class := plan.classOf[i]
		if class == sc.ID() || class == "" {
			continue // both elements in cone, or both out
		}
		// One element dropped: the class must be the surviving element's
		// k=1 scenario, and the verdicts must be stamped from it.
		projected++
		rep, ok := byID[class]
		if !ok {
			t.Fatalf("class %q is not an enumerated scenario", class)
		}
		v := byID[sc.ID()]
		if !sameSources(v.Sources, rep.Sources) {
			t.Errorf("pair %s not stamped from projection %s", sc.ID(), class)
		}
		if v.Executed {
			t.Errorf("pair %s should be stamped, not executed", sc.ID())
		}
		// Cold-verify a deterministic sample.
		if checked < 5 && projected%7 == 1 {
			checked++
			want := coldVerdicts(t, texts, sc, srcs, dst)
			if !sameSources(v.Sources, want) {
				t.Errorf("pair %s: projected verdict differs from cold run\n got %+v\nwant %+v", sc.ID(), v.Sources, want)
			}
		}
	}
	if projected == 0 {
		t.Fatal("no k=2 pair had exactly one in-cone element; cone scoping broke")
	}
	if checked == 0 {
		t.Fatal("sampling logic never cold-checked a projected pair")
	}
}

// TestSweepDeterminismAcrossWorkers runs the identical sweep at 1, 2, 4,
// and 8 workers and requires byte-identical verdict sets. The race
// detector build of this test doubles as the ctx/data-race gate for the
// executor (workers share only the job queue and the outcome map).
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	texts := fabricTexts(t, "dw")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "dw-p01-tor01", "dw-p01-tor02")

	plan, err := NewPlan(base, Spec{K: 1, Links: true, Nodes: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		plan.spec.Workers = workers
		var streamed []Verdict
		res, err := plan.Execute(context.Background(), func(v Verdict) { streamed = append(streamed, v) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}
		// The stream carries every verdict exactly once; sorted, it must
		// equal the canonical verdict list.
		if len(streamed) != len(res.Verdicts) {
			t.Fatalf("workers=%d: streamed %d of %d verdicts", workers, len(streamed), len(res.Verdicts))
		}
		SortVerdicts(streamed)
		canon := append([]Verdict(nil), res.Verdicts...)
		SortVerdicts(canon)
		for i := range canon {
			a, _ := json.Marshal(streamed[i])
			b, _ := json.Marshal(canon[i])
			if string(a) != string(b) {
				t.Errorf("workers=%d: streamed verdict %d differs from canonical", workers, i)
			}
		}
	}
}

// TestSweepRuntimeBound drives a worker runtime past its factory bound.
// The k=2 sweep is unscoped, so each class simulates and analyses every
// prefix and adds many BDD nodes. Replayed in queue order on one runtime,
// the classes pass the bound before the last one, so a one-worker
// Execute rebuilds its runtime mid-sweep. Every class's verdict must
// still equal a cold recomputation.
func TestSweepRuntimeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("cold-verifies every class; skipped in -short")
	}
	texts := fabricTexts(t, "rb")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, _ := monitored(t, base, "rb-p01-tor01", "rb-p01-tor02")
	plan, err := NewPlan(base, Spec{K: 2, Sources: srcs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := plan.newRT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	passed := -1
	for i, id := range plan.classIDs {
		if rt.factorySize() > rt.limit {
			passed = i
			break
		}
		if _, err := rt.runClass(plan, plan.classRep[id], id); err != nil {
			t.Fatal(err)
		}
	}
	if passed < 0 {
		t.Fatalf("%d unscoped classes left the factory at %d nodes, within its bound of %d",
			len(plan.classIDs), rt.factorySize(), rt.limit)
	}
	t.Logf("factory passed its bound of %d nodes after %d of %d classes", rt.limit, passed, len(plan.classIDs))

	res, err := plan.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("sweep degraded")
	}
	for _, v := range res.Verdicts {
		if !v.Executed {
			continue
		}
		sc := Scenario{}
		for _, id := range strings.Split(v.Scenario, "+") {
			sc.Elements = append(sc.Elements, elementByID(t, plan, id))
		}
		cold := core.LoadTextWith(pipeline.Disabled(), texts).Apply(sc.overlay())
		want := renderSources(srcs, cold.Reachability(core.ReachabilityParams{Sources: srcs}))
		if !sameSources(v.Sources, want) {
			t.Errorf("%s: swept %+v, cold %+v", v.Scenario, v.Sources, want)
		}
	}
}

// TestSweepWorkerKillRequeue kills a worker mid-scenario via the faults
// harness (a panic at the sweep injection point) and requires the class
// to be requeued onto a fresh runtime with byte-identical final verdicts
// and no degradation.
func TestSweepWorkerKillRequeue(t *testing.T) {
	texts := fabricTexts(t, "fk")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "fk-p01-tor01", "fk-p01-tor02")
	plan, err := NewPlan(base, Spec{K: 1, Nodes: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := plan.Execute(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Fatal("clean run degraded")
	}

	// Kill the worker on the first firing of any class; the requeue must
	// absorb it.
	inj := faults.New().Enable("sweep", "*", faults.Rule{Kind: faults.Panic, Count: 1})
	restore := faults.Activate(inj)
	chaos, err := plan.Execute(context.Background(), nil)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, n := range inj.Hits() {
		fired += n
	}
	if fired != 1 {
		t.Fatalf("fault fired %d times, want 1", fired)
	}
	if chaos.Degraded {
		t.Fatal("requeued run must not be degraded")
	}
	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(chaos)
	if string(a) != string(b) {
		t.Error("verdicts after worker kill + requeue differ from clean run")
	}

	// A class that fails twice (kill on first run AND on the retry) must
	// degrade that class's verdicts, not hang or poison the others.
	inj2 := faults.New().Enable("sweep", plan.classIDs[0], faults.Rule{Kind: faults.Panic})
	restore = faults.Activate(inj2)
	degr, err := plan.Execute(context.Background(), nil)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !degr.Degraded {
		t.Fatal("doubly-killed class must degrade the result")
	}
	for _, v := range degr.Verdicts {
		if v.Class == plan.classIDs[0] {
			if !v.Degraded {
				t.Errorf("verdict %s should be degraded", v.Scenario)
			}
		} else if v.Degraded {
			t.Errorf("unrelated verdict %s degraded", v.Scenario)
		}
	}
}

// TestSweepPanickingEmit: a panicking emit callback must not crash the
// process, leak the results mutex (wedging every other worker), or hang
// executeClasses. The worker that hit the panic dies; classes it never
// delivered degrade through assemble exactly like cancellation.
func TestSweepPanickingEmit(t *testing.T) {
	texts := fabricTexts(t, "pe")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "pe-p01-tor01", "pe-p01-tor02")
	plan, err := NewPlan(base, Spec{K: 1, Nodes: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.classIDs) < 3 {
		t.Fatalf("plan too small for the test: %d classes", len(plan.classIDs))
	}

	// Emit panics once. The worker that called it dies, but its class was
	// already recorded and the surviving worker drains the queue: the run
	// completes whole.
	fired := false
	results := plan.executeClasses(context.Background(), func(outcome) {
		if !fired {
			fired = true
			panic("emit failed once")
		}
	})
	if len(results) != len(plan.classIDs) {
		t.Fatalf("one-shot emit panic: delivered %d of %d classes", len(results), len(plan.classIDs))
	}
	if res := plan.assemble(results); res.Degraded {
		t.Error("one-shot emit panic must not degrade a fully-delivered run")
	}

	// Emit always panics: with one worker the run dies after its first
	// delivery. The missing classes must come back Degraded, not hang.
	plan.spec.Workers = 1
	results = plan.executeClasses(context.Background(), func(outcome) {
		panic("emit always fails")
	})
	if len(results) != 1 {
		t.Fatalf("always-panic emit: delivered %d classes, want 1", len(results))
	}
	if res := plan.assemble(results); !res.Degraded {
		t.Error("undelivered classes must degrade the assembled result")
	}
}

// TestSweepCancellation: a cancelled context stops the sweep promptly and
// reports the cancellation.
func TestSweepCancellation(t *testing.T) {
	texts := fabricTexts(t, "cx")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	srcs, dst := monitored(t, base, "cx-p01-tor01", "cx-p01-tor02")
	plan, err := NewPlan(base, Spec{K: 1, Links: true, Nodes: true,
		Sources: srcs, DstIPs: []ip4.Prefix{dst}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := plan.Execute(ctx, nil)
	if err == nil {
		t.Fatal("cancelled sweep must return the context error")
	}
	if res == nil || !res.Degraded {
		t.Fatal("cancelled sweep must return a degraded partial result")
	}
	if res.Executed != 0 || res.Pruned != res.Enumerated-len(plan.classIDs) {
		t.Errorf("pre-cancelled sweep: executed %d, pruned %d; want 0 executed, %d pruned",
			res.Executed, res.Pruned, res.Enumerated-len(plan.classIDs))
	}
}

func TestSweepSpecValidation(t *testing.T) {
	texts := fabricTexts(t, "sv")
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	if _, err := NewPlan(base, Spec{K: 3}); err == nil {
		t.Error("k=3 must be rejected")
	}
	if _, err := NewPlan(base, Spec{K: 1, MaxScenarios: 2}); err == nil {
		t.Error("scenario cap must be enforced")
	}
	srcs, dst := monitored(t, base, "sv-p01-tor01", "sv-p01-tor02")
	// Sources the snapshot does not have are refused by name, before any
	// question runs on the base.
	unknown := append([]reach.SourceLoc{{Device: "nope", Iface: "eth0"}, {Device: "sv-p01-tor01", Iface: "nope"}}, srcs...)
	if _, err := NewPlan(base, Spec{Sources: unknown}); err == nil ||
		!strings.Contains(err.Error(), "nope/eth0, sv-p01-tor01/nope") {
		t.Errorf("unknown sources: err %v, want one naming nope/eth0 and sv-p01-tor01/nope", err)
	}
	if base.Degraded() {
		t.Fatalf("refusing unknown sources degraded the base: %v", base.Diags())
	}
	p, err := NewPlan(base, Spec{Sources: srcs, DstIPs: []ip4.Prefix{dst}})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: k=1, links+nodes.
	wantElems := len(base.Net.DeviceNames()) + len(base.DataPlane().Topology.Links())
	if p.Enumerated() != wantElems {
		t.Errorf("default spec enumerated %d, want %d", p.Enumerated(), wantElems)
	}
}
