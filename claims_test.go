package repro_test

import (
	"context"
	"testing"

	"repro/internal/bdd"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/reach"
)

// TestPaperCountClaims checks §4's design claims as count ratios on the
// inputs of the ablation benchmarks. Counts (BDD nodes, BDD operations,
// graph edges) are machine-independent, so unlike the benchmarks' timings
// they hold on any host. Each arm builds on a fresh factory.
func TestPaperCountClaims(t *testing.T) {
	// relProdOps applies the NAT to every packet set and counts the
	// encoder's BDD operations.
	relProdOps := func(apply func(*hdr.Enc, bdd.Ref, *hdr.Transform) bdd.Ref) int {
		enc, full, sets := relProdInput()
		ops0 := enc.F.OpCount()
		for _, set := range sets {
			apply(enc, set, full)
		}
		return int(enc.F.OpCount() - ops0)
	}
	compressEdges := func(compress bool) int {
		return reach.NewWithOptions(fwdgraph.New(compressDataPlane()), reach.Options{Compress: compress}).EdgeCount()
	}
	// editGraphOps builds NET2's graph, then the graph of a one-device
	// edit of it on the same factory (stitched from the first or rebuilt),
	// and counts the second build's BDD operations.
	dp, edited := graphEdit(t)
	editGraphOps := func(stitch bool) int {
		enc := hdr.NewEnc(fwdgraph.ZoneBits + fwdgraph.WaypointBits)
		base := fwdgraph.NewWithEnc(dp, enc)
		if !stitch {
			base = nil
		}
		ops0 := enc.F.OpCount()
		fwdgraph.Update(context.Background(), base, edited, enc)
		return int(enc.F.OpCount() - ops0)
	}
	for _, c := range []struct {
		claim string
		// better is the optimized arm's count, worse the baseline's; the
		// claim holds when worse > better and worse >= factor*better.
		better, worse func() int
		factor        float64
	}{
		{"§4.2.2 msb-first order needs >=2x fewer BDD nodes than lsb-first",
			func() int { return varOrderNodes(true) }, func() int { return varOrderNodes(false) }, 2},
		{"§4.2.3 fused relprod needs fewer BDD ops than three-step",
			func() int { return relProdOps((*hdr.Enc).Apply) }, func() int { return relProdOps((*hdr.Enc).ApplyNaive) }, 1},
		{"§4.2.3 the compressed graph has fewer edges than the uncompressed one",
			func() int { return compressEdges(true) }, func() int { return compressEdges(false) }, 1},
		{"§4.2.1 an edit's stitched graph needs >=10x fewer BDD ops than a rebuild on the same factory",
			func() int { return editGraphOps(true) }, func() int { return editGraphOps(false) }, 10},
	} {
		better, worse := c.better(), c.worse()
		t.Logf("%s: %d vs %d", c.claim, better, worse)
		if worse <= better || float64(worse) < c.factor*float64(better) {
			t.Errorf("%s: violated, %d vs %d", c.claim, better, worse)
		}
	}
}
