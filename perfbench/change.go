package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// changeLoop is the operator's edit-one-device-and-re-verify loop on a warm
// baseline of the 92-device fabric. Each op edits one of three ToRs drawn
// from the seed — null-routing half its host subnet plus an op-unique
// unused prefix, so the data-plane artifact never hits whole — then runs
// Edit → DataPlane → Graph → Analysis → CompareWith. This is where the
// pipeline cache, parse-artifact reuse and incremental CompareWith work.
type changeLoop struct {
	cfg    runConfig
	texts  map[string]string
	tors   []string
	pl     *pipeline.Pipeline
	base   *core.Snapshot
	want   map[string]string // ToR → reference CompareWith rendering
	before pipeline.Stats
}

// storeCapacity bounds the artifact store to the baseline's artifacts (one
// parse artifact per device plus data plane, graph and analysis) and about
// one edit's (a parse, data-plane, graph and analysis artifact), so a long
// session evicts old candidates instead of holding every edit's data plane
// in memory, and peak memory does not grow with the number of ops a run
// fits in.
const storeCapacity = 100

func (w *changeLoop) clients() int { return 1 }

func (w *changeLoop) setup() error {
	if w.cfg.tiny {
		w.texts = fabric("chg", 2, 2, 2, 3)
	} else {
		w.texts = fabric("chg", 4, 4, 2, 20)
	}
	w.tors = pick(rand.New(rand.NewSource(w.cfg.seed)), torsOf(w.texts), 3)
	w.pl = pipeline.New(pipeline.Config{StoreCapacity: storeCapacity})
	w.base = core.LoadTextWith(w.pl, w.texts)
	if flows := w.base.Reachability(core.ReachabilityParams{}); len(flows) == 0 || w.base.Degraded() {
		return fmt.Errorf("baseline: %d flows, diags %v", len(flows), w.base.Diags())
	}
	return nil
}

// edit returns op i's edited device and its new config.
func (w *changeLoop) edit(i int) (string, string, error) {
	tor := w.tors[i%len(w.tors)]
	text, err := nullRouteEdit(w.texts, w.base.Net, tor, i)
	return tor, text, err
}

// reference computes, for each edited ToR, the CompareWith answer of a
// caching-disabled cold recompute of that ToR's first edit: both snapshots
// parsed, simulated and compared from scratch, with no incremental path.
func (w *changeLoop) reference() error {
	cold := core.LoadTextWith(pipeline.Disabled(), w.texts)
	w.want = make(map[string]string, len(w.tors))
	for i := range w.tors {
		tor, text, err := w.edit(i)
		if err != nil {
			return err
		}
		after := core.LoadTextWith(pipeline.Disabled(), with(w.texts, tor, text))
		diffs := cold.CompareWith(after)
		if len(diffs) == 0 || after.Degraded() {
			return fmt.Errorf("cold edit of %s: %d differences (the null route must break flows)", tor, len(diffs))
		}
		w.want[tor] = server.RenderDiffs(diffs)
	}
	w.before = w.pl.Stats()
	return nil
}

func (w *changeLoop) op(root *span, _, i int) (string, func() error, error) {
	tor, text, err := w.edit(i)
	if err != nil {
		return "change", nil, err
	}
	// Graphs of one caching pipeline share a factory, so the op's BDD work
	// is the factory's growth across the op.
	f := w.base.Graph().Enc.F
	nodes0, ops0 := f.Size(), f.OpCount()

	sp := root.child("Edit", "parse")
	after := w.base.Edit(map[string]string{tor: text})
	sp.end()
	sp.count("devices", 1)

	sp = root.child("DataPlane", "dataplane")
	dp := after.DataPlane()
	sp.end()
	countDataPlane(sp, dp)

	sp = root.child("Graph", "fwdgraph")
	g := after.Graph()
	sp.end()
	sp.count("edges", int64(len(g.Edges)))

	sp = root.child("Analysis", "reach")
	after.Analysis()
	sp.end()

	sp = root.child("CompareWith", "core.compare")
	diffs := w.base.CompareWith(after)
	sp.end()
	sp.count("flows", int64(len(diffs)))
	root.count("bdd_nodes", int64(f.Size()-nodes0))
	root.count("bdd_ops", int64(f.OpCount()-ops0))

	return "change", func() error {
		if after.Degraded() {
			return fmt.Errorf("edit of %s degraded: %v", tor, after.Diags())
		}
		if got := server.RenderDiffs(diffs); got != w.want[tor] {
			return fmt.Errorf("op %d: incremental CompareWith for %s differs from the cold recompute", i, tor)
		}
		return nil
	}, nil
}

func (w *changeLoop) finish() error { return nil }

func (w *changeLoop) layers(ops int) map[string]float64 {
	st := w.pl.Stats().Store
	hits, misses := st.Hits-w.before.Store.Hits, st.Misses-w.before.Store.Misses
	return map[string]float64{
		"pipeline.hit_ratio": safeDiv(float64(hits), float64(hits+misses)),
		"pipeline.evictions": perOp(float64(st.Evictions-w.before.Store.Evictions), ops),
	}
}
