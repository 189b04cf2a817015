package dataplane

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/netgen"
)

// TestParallelDeterminism asserts byte-identical RIB/FIB state (via
// Result.Fingerprint) across worker counts on generated topologies: a
// ≥200-device eBGP fat-tree and a seeded random OSPF mesh. This is the
// §4.1.2 guarantee — the colored schedule plus logical clocks make the
// simulation "deterministic and parallel at the same time".
func TestParallelDeterminism(t *testing.T) {
	fabric := netgen.FabricParams{Name: "det", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true}
	random := netgen.RandomParams{Name: "detr", Nodes: 60, Degree: 4,
		LansPerNode: 2, Seed: 7}
	if testing.Short() {
		fabric.Pods, fabric.TorPerPod = 3, 4
		random.Nodes = 24
	}
	if n := fabric.Devices(); !testing.Short() && n < 200 {
		t.Fatalf("fabric must have >= 200 devices, got %d", n)
	}

	levels := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	snapshots := []*netgen.Snapshot{netgen.Fabric(fabric), netgen.Random(random)}
	for _, snap := range snapshots {
		net, warns := snap.Parse()
		if len(warns) > 0 {
			t.Fatalf("%s: parse warnings: %v", snap.Name, warns[:min(3, len(warns))])
		}
		var want uint64
		for i, par := range levels {
			// The fused colored schedule is the default; spell it out since
			// this test is the fusion-safety gate.
			r := Run(net, Options{Parallelism: par, Schedule: ScheduleColored})
			if !r.Converged {
				t.Fatalf("%s: no convergence at parallelism %d", snap.Name, par)
			}
			fp := r.Fingerprint()
			if i == 0 {
				want = fp
				continue
			}
			if fp != want {
				t.Errorf("%s: fingerprint at parallelism %d = %x, serial = %x",
					snap.Name, par, fp, want)
			}
		}
	}
}

// TestArtifactStateBytesIdenticalAcrossWorkers is a stricter determinism
// check than Fingerprint: the complete persisted artifact — every route
// including its logical-clock draw, FIB entries, sessions, warnings, and
// iteration counts — must be byte-identical whatever the worker count.
// Per-node clocks make clock values a function of each node's own merge
// sequence, not of cross-node scheduling, which is what lets the fused
// parallel schedule reproduce the serial state exactly.
func TestArtifactStateBytesIdenticalAcrossWorkers(t *testing.T) {
	snap := netgen.Random(netgen.RandomParams{Name: "artr", Nodes: 24, Degree: 4,
		LansPerNode: 2, Seed: 11})
	net, warns := snap.Parse()
	if len(warns) > 0 {
		t.Fatalf("parse warnings: %v", warns[:min(3, len(warns))])
	}
	artifact := func(par int) []byte {
		r := Run(net, Options{Parallelism: par, Schedule: ScheduleColored})
		if !r.Converged {
			t.Fatalf("no convergence at parallelism %d", par)
		}
		b, err := MarshalResult(r)
		if err != nil {
			t.Fatalf("marshal at parallelism %d: %v", par, err)
		}
		return b
	}
	want := artifact(1)
	for _, par := range []int{2, 4, 8} {
		if got := artifact(par); !bytes.Equal(got, want) {
			t.Errorf("artifact bytes at parallelism %d differ from serial (%d vs %d bytes)",
				par, len(got), len(want))
		}
	}
}
