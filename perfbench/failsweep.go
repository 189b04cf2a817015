package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ip4"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/sweep"
	"repro/internal/topo"
)

// failureSweep runs k=1 link+node failure sweeps (sweep.NewPlan +
// Plan.Execute) over a 36-device fabric, monitoring one cross-pod ToR→ToR
// flow drawn from the seed. It measures the sweep layer and per-class
// scenario re-analysis, which no other workload reaches. The executor runs
// one worker: a worker rebuilds its runtime every 16 classes, and with two
// workers pulling from one queue the number of rebuilds per sweep depends
// on how the classes happen to split, which made sweep times swing by a
// sixth between runs.
type failureSweep struct {
	cfg    runConfig
	texts  map[string]string
	base   *core.Snapshot
	spec   sweep.Spec
	params core.ReachabilityParams

	ref       *sweep.Result // the reference sweep every measured one must match
	refDigest string
	before    pipeline.Stats
}

func (w *failureSweep) clients() int { return 1 }

func (w *failureSweep) setup() error {
	if w.cfg.tiny {
		w.texts = fabric("swp", 2, 2, 2, 2)
	} else {
		w.texts = fabric("swp", 4, 4, 2, 6)
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	tors := torsOf(w.texts)
	src := tors[rng.Intn(len(tors))]
	var others []string
	for _, t := range tors {
		if podOf(t) != podOf(src) {
			others = append(others, t)
		}
	}
	dstTor := others[rng.Intn(len(others))]

	w.base = core.LoadTextWith(pipeline.New(pipeline.Config{}), w.texts)
	iface, _, err := hostSubnet(w.base.Net, src)
	if err != nil {
		return err
	}
	_, dst, err := hostSubnet(w.base.Net, dstTor)
	if err != nil {
		return err
	}
	srcs := []reach.SourceLoc{{Device: src, Iface: iface}}
	w.spec = sweep.Spec{Workers: 1, Sources: srcs, DstIPs: []ip4.Prefix{dst}}
	w.params = core.ReachabilityParams{Sources: srcs, DstIPs: w.spec.DstIPs}
	flows := w.base.Reachability(w.params)
	if len(flows) != 1 || flows[0].Delivered == bdd.False || w.base.Degraded() {
		return fmt.Errorf("monitored flow %s → %s is not delivered at baseline", src, dst)
	}
	return nil
}

// reference runs one sweep, records its verdict digest, and replays a
// seeded sample of its executed and pruned scenarios cold — a fresh
// caching-disabled snapshot with the failure applied — requiring the same
// per-source verdicts.
func (w *failureSweep) reference() error {
	res, err := sweep.Run(context.Background(), w.base, w.spec)
	if err != nil {
		return err
	}
	if res.Degraded {
		return fmt.Errorf("reference sweep degraded")
	}
	if w.refDigest, err = sweepDigest(res); err != nil {
		return err
	}
	w.ref = res
	if err := w.replaySample(); err != nil {
		return err
	}
	w.before = w.base.Pipeline().Stats()
	return nil
}

func (w *failureSweep) op(root *span, _, _ int) (string, func() error, error) {
	sp := root.child("NewPlan", "sweep.plan")
	plan, err := sweep.NewPlan(w.base, w.spec)
	sp.end()
	if err != nil {
		return "sweep", nil, err
	}
	sp = root.child("Execute", "sweep.exec")
	res, err := plan.Execute(context.Background(), nil)
	sp.end()
	if err != nil {
		return "sweep", nil, err
	}
	sp.count("executed", int64(res.Executed))
	// No bdd counts: Execute runs every class on worker pipelines with
	// factories of their own, out of the benchmark's reach, so the base
	// factory's growth would not be the sweep's BDD work.

	return "sweep", func() error {
		if res.Degraded {
			return fmt.Errorf("sweep degraded")
		}
		d, err := sweepDigest(res)
		if err != nil {
			return err
		}
		if d != w.refDigest {
			return fmt.Errorf("sweep verdict digest %s, reference %s", d, w.refDigest)
		}
		return nil
	}, nil
}

func sweepDigest(res *sweep.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digest(string(b)), nil
}

func (w *failureSweep) finish() error { return nil }

// replaySample checks two executed and two pruned scenarios of the
// reference sweep against cold replays.
func (w *failureSweep) replaySample() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	var executed, pruned []sweep.Verdict
	for _, v := range w.ref.Verdicts {
		if v.Executed {
			executed = append(executed, v)
		} else {
			pruned = append(pruned, v)
		}
	}
	if len(executed) == 0 || len(pruned) == 0 {
		return fmt.Errorf("sweep executed %d and pruned %d scenarios; the spot check needs both", len(executed), len(pruned))
	}
	var sample []sweep.Verdict
	for _, vs := range [][]sweep.Verdict{executed, pruned} {
		for _, i := range rng.Perm(len(vs))[:min(2, len(vs))] {
			sample = append(sample, vs[i])
		}
	}
	for _, v := range sample {
		sc, err := scenarioFromID(v.Scenario)
		if err != nil {
			return err
		}
		snap := core.LoadTextWith(pipeline.Disabled(), w.texts).Apply(sc)
		flows := snap.Reachability(w.params)
		got := make(map[reach.SourceLoc]bool, len(flows))
		for _, fr := range flows {
			got[fr.Source] = fr.Delivered != bdd.False
		}
		for _, sv := range v.Sources {
			if got[reach.SourceLoc{Device: sv.Device, Iface: sv.Iface}] != sv.Delivered {
				return fmt.Errorf("scenario %s (executed=%v): verdict for %s/%s differs from a cold replay",
					v.Scenario, v.Executed, sv.Device, sv.Iface)
			}
		}
	}
	return nil
}

// scenarioFromID reverses sweep.Element.ID for the link and node kinds a
// k=1 link+node sweep enumerates.
func scenarioFromID(id string) (core.Scenario, error) {
	var sc core.Scenario
	for _, el := range strings.Split(id, "+") {
		kind, rest, _ := strings.Cut(el, ":")
		switch kind {
		case "node":
			sc.NodesDown = append(sc.NodesDown, rest)
		case "link":
			halves := strings.Split(rest, "<->")
			if len(halves) != 2 {
				return sc, fmt.Errorf("malformed link element %q", el)
			}
			n1, i1, _ := strings.Cut(halves[0], ":")
			n2, i2, _ := strings.Cut(halves[1], ":")
			sc.LinksDown = append(sc.LinksDown, topo.Link{Node1: n1, Iface1: i1, Node2: n2, Iface2: i2})
		default:
			return sc, fmt.Errorf("unsupported element %q", el)
		}
	}
	return sc, nil
}

func (w *failureSweep) layers(ops int) map[string]float64 {
	st := w.base.Pipeline().Stats().Store
	hits, misses := st.Hits-w.before.Store.Hits, st.Misses-w.before.Store.Misses
	vals := map[string]float64{
		"pipeline.hit_ratio": safeDiv(float64(hits), float64(hits+misses)),
		"pipeline.evictions": perOp(float64(st.Evictions-w.before.Store.Evictions), ops),
	}
	vals["sweep.prune_ratio"] = safeDiv(float64(w.ref.Pruned), float64(w.ref.Enumerated))
	vals["sweep.executed"] = float64(w.ref.Executed)
	return vals
}
