// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table/figure, plus ablations for the design choices DESIGN.md calls out.
// See EXPERIMENTS.md for measured results and paper-vs-measured notes.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/apt"
	"repro/internal/bdd"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dataplane"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/nod"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/testnet"
	"repro/internal/topo"
)

// ---------------------------------------------------------------------------
// E1 / Figure 1: deterministic convergence. The naive lockstep schedule
// oscillates on the Figure 1b pattern (bounded by MaxIterations); the
// production colored schedule converges in a handful of iterations.

func BenchmarkFigure1(b *testing.B) {
	b.Run("lockstep", func(b *testing.B) {
		iters := 0
		osc := 0
		for i := 0; i < b.N; i++ {
			r := dataplane.Run(testnet.Figure1b(), dataplane.Options{
				Schedule: dataplane.ScheduleLockstep, MaxIterations: 100})
			iters += r.BGPIterations
			if r.Oscillation {
				osc++
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
		b.ReportMetric(float64(osc)/float64(b.N), "oscillations/op")
	})
	b.Run("colored", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			r := dataplane.Run(testnet.Figure1b(), dataplane.Options{})
			if !r.Converged {
				b.Fatal("colored schedule must converge")
			}
			iters += r.BGPIterations
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iterations/op")
	})
}

// ---------------------------------------------------------------------------
// E2 / Figure 2: dataflow graph construction on the paper's example.

func BenchmarkFigure2GraphBuild(b *testing.B) {
	dp := dataplane.Run(testnet.Figure2(), dataplane.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := fwdgraph.New(dp)
		if len(g.Edges) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkGraphBuild: the forwarding-graph layer alone on NET2. The data
// plane is computed once; each op builds the graph on a fresh encoder made
// outside the timer, so no op reads another's BDD caches. bdd-ops and
// bdd-nodes are the factory's apply ops and allocated nodes per build.
func BenchmarkGraphBuild(b *testing.B) {
	net, _ := netgen.Catalog()[1].Gen().Parse() // NET2
	dp := dataplane.Run(net, dataplane.Options{})
	if !dp.Converged {
		b.Fatal("no convergence")
	}
	var ops, nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc := hdr.NewEnc(fwdgraph.ZoneBits + fwdgraph.WaypointBits)
		ops0, nodes0 := enc.F.OpCount(), enc.F.Size()
		b.StartTimer()
		g := fwdgraph.NewWithEnc(dp, enc)
		if len(g.Edges) == 0 {
			b.Fatal("empty graph")
		}
		ops += int(enc.F.OpCount() - ops0)
		nodes += enc.F.Size() - nodes0
	}
	b.ReportMetric(float64(ops)/float64(b.N), "bdd-ops")
	b.ReportMetric(float64(nodes)/float64(b.N), "bdd-nodes")
}

// ---------------------------------------------------------------------------
// E3 / Figure 3: current vs original Batfish — parsing, data plane
// generation (imperative vs Datalog), and data plane verification
// (multipath consistency: BDD engine vs NoD/SAT).
//
// The Datalog and NoD baselines run on a scaled-down NET1 (the original
// architecture cannot complete the full 75-device network in benchmark
// time — which is the point of Figure 3); the current engines run on the
// same scaled workload so the speedup ratios are like-for-like.

func net1Mini() *config.Network {
	snap := netgen.Campus(netgen.CampusParams{Name: "n1m", Core: 3, Areas: 2, AccessPerArea: 2, LansPerAccess: 1})
	net, _ := snap.Parse()
	return net
}

func BenchmarkFigure3(b *testing.B) {
	b.Run("Parse/NET1", func(b *testing.B) {
		snap := netgen.Catalog()[0].Gen()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net, _ := snap.Parse()
			if len(net.Devices) != 75 {
				b.Fatal("bad parse")
			}
		}
	})
	b.Run("DPgen/original-datalog", func(b *testing.B) {
		net := net1Mini()
		for i := 0; i < b.N; i++ {
			cp := datalog.NewControlPlane(net, 100)
			cp.Run()
			if cp.E.FactCount() == 0 {
				b.Fatal("no facts")
			}
		}
	})
	b.Run("DPgen/current-imperative", func(b *testing.B) {
		net := net1Mini()
		for i := 0; i < b.N; i++ {
			r := dataplane.Run(net1MiniCopy(net), dataplane.Options{})
			if !r.Converged {
				b.Fatal("no convergence")
			}
		}
	})
	b.Run("Verify/original-nod", func(b *testing.B) {
		dp := dataplane.Run(net1Mini(), dataplane.Options{})
		for i := 0; i < b.N; i++ {
			e := nod.New(dp)
			_, _ = e.MultipathConsistency(len(dp.Network.Devices) + 1)
		}
	})
	b.Run("Verify/current-bdd", func(b *testing.B) {
		dp := dataplane.Run(net1Mini(), dataplane.Options{})
		for i := 0; i < b.N; i++ {
			a := reach.New(fwdgraph.New(dp))
			_ = a.MultipathConsistency(bdd.True)
		}
	})
}

// net1MiniCopy regenerates the network (the simulator mutates VRF state
// holders hanging off the parsed config between runs).
func net1MiniCopy(_ *config.Network) *config.Network { return net1Mini() }

// ---------------------------------------------------------------------------
// E5 / Table 2: full-pipeline performance per catalog network. Larger
// networks run only without -short (and the largest via
// `cmd/batfish -table2 -nets 11`).

func BenchmarkTable2(b *testing.B) {
	specs := netgen.Catalog()
	limit := 3
	if !testing.Short() {
		limit = 5
	}
	for _, sp := range specs[:limit] {
		sp := sp
		b.Run(sp.Name+"/parse", func(b *testing.B) {
			snap := sp.Gen()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Parse()
			}
		})
		b.Run(sp.Name+"/dpgen", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _ := sp.Gen().Parse()
				b.StartTimer()
				r := dataplane.Run(net, dataplane.Options{Parallelism: runtime.NumCPU()})
				if !r.Converged {
					b.Fatalf("%s did not converge", sp.Name)
				}
			}
		})
		b.Run(sp.Name+"/destreach", func(b *testing.B) {
			net, _ := sp.Gen().Parse()
			dp := dataplane.Run(net, dataplane.Options{Parallelism: runtime.NumCPU()})
			names := net.DeviceNames()
			dst := names[len(names)/2]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := reach.New(fwdgraph.New(dp))
				if len(a.DestReachability(dst, bdd.True)) == 0 {
					b.Fatal("nothing reaches dst")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6 / §6.2: BDD engine vs Atomic Predicates on the 92-node NET2
// (the APT paper's largest network is 92 nodes). Times include building
// the engine's data structures plus one destination reachability query,
// matching the paper's "builds the dataflow graph and answers destination
// reachability queries" comparison. The APT baseline is exercised on a
// filter-free variant (APT does not model transformations or the richer
// pipeline).

func BenchmarkAPT(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "net2", Spines: 4, Pods: 8,
		AggPerPod: 2, TorPerPod: 9, HostNetsPerTor: 2, Multipath: true})
	net, _ := gen.Parse()
	dp := dataplane.Run(net, dataplane.Options{Parallelism: runtime.NumCPU()})
	if !dp.Converged {
		b.Fatal("no convergence")
	}
	dst := net.DeviceNames()[10]
	b.Run("bdd-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := reach.New(fwdgraph.New(dp))
			if len(a.DestReachability(dst, bdd.True)) == 0 {
				b.Fatal("no reachability")
			}
		}
	})
	b.Run("atomic-predicates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := fwdgraph.New(dp)
			a, err := apt.New(g)
			if err != nil {
				b.Fatal(err)
			}
			if len(a.DestReachability(dst)) == 0 {
				b.Fatal("no reachability")
			}
			b.ReportMetric(float64(a.NumAtoms), "atoms")
		}
	})
}

// ---------------------------------------------------------------------------
// E7 / §4.1.3: attribute interning. Builds the BGP route load of a fabric
// simulation with and without the interned 13-property attribute object
// and reports bytes per route plus the route:combination ratio the paper
// cites as "typically 10x–20x". Floor: interning must pay for itself per
// operation — interned ns/op, B/op and allocs/op each at most the
// not-interned arm's, compared on each arm's final (reported) run.
func BenchmarkIntern(b *testing.B) {
	const routes = 100_000
	const combos = 64 // distinct attribute combinations in the workload
	mkAttrs := func(i int) routing.BGPAttrs {
		return routing.BGPAttrs{
			AdminDistance: 20,
			LocalPref:     100 + uint32(i%4)*10,
			MED:           uint32(i % 4),
			Origin:        routing.OriginIGP,
			FromAS:        65000 + uint32(i%4),
			ReceivedFrom:  ip4.Addr(0x0a000001 + uint32(i%combos)),
		}
	}
	// internCost is one arm's per-op cost on its last run.
	type internCost struct{ ns, bytes, allocs float64 }
	// measure runs op b.N times and records its per-op cost in out.
	measure := func(b *testing.B, out *internCost, op func()) {
		b.ReportAllocs()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < b.N; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		n := float64(b.N)
		*out = internCost{
			ns:     float64(b.Elapsed().Nanoseconds()) / n,
			bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		}
	}
	var interned, notInterned internCost
	b.Run("interned", func(b *testing.B) {
		var uniq int
		measure(b, &interned, func() {
			pool := routing.NewPool()
			rts := make([]routing.Route, routes)
			path := pool.ASPath(65001, 65002)
			comms := pool.CommunitySet(65000<<16 | 100)
			for j := range rts {
				a := mkAttrs(j)
				a.ASPath = path
				a.Communities = comms
				rts[j] = routing.Route{
					Prefix:   ip4.Prefix{Addr: ip4.Addr(j << 8), Len: 24},
					Protocol: routing.EBGP,
					Attrs:    pool.Attrs(&a),
				}
			}
			uniq = pool.Stats().UniqueAttrs
		})
		b.ReportMetric(float64(routes)/float64(uniq), "routes/combination")
	})
	b.Run("not-interned", func(b *testing.B) {
		measure(b, &notInterned, func() {
			pool := routing.NewPool()
			rts := make([]routing.Route, routes)
			path := pool.ASPath(65001, 65002)
			comms := pool.CommunitySet(65000<<16 | 100)
			for j := range rts {
				a := mkAttrs(j)
				a.ASPath = path
				a.Communities = comms
				attrs := new(routing.BGPAttrs) // one fresh object per route
				*attrs = a
				rts[j] = routing.Route{
					Prefix:   ip4.Prefix{Addr: ip4.Addr(j << 8), Len: 24},
					Protocol: routing.EBGP,
					Attrs:    attrs,
				}
			}
		})
	})
	if interned.ns == 0 || notInterned.ns == 0 {
		return // -bench filtered an arm out
	}
	if interned.bytes > notInterned.bytes {
		b.Errorf("interned %.0f B/op above not-interned %.0f B/op", interned.bytes, notInterned.bytes)
	}
	if interned.allocs > notInterned.allocs {
		b.Errorf("interned %.0f allocs/op above not-interned %.0f allocs/op", interned.allocs, notInterned.allocs)
	}
	if interned.ns > notInterned.ns {
		b.Fatalf("interned %.0f ns/op slower than not-interned %.0f ns/op", interned.ns, notInterned.ns)
	}
}

// BenchmarkConvergenceMemory compares the delta-based convergence check
// with the classic full-state method (§4.1.3 ablation).
func BenchmarkConvergenceMemory(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "cm", Spines: 4, Pods: 4,
		AggPerPod: 2, TorPerPod: 6, HostNetsPerTor: 1, Multipath: true})
	for _, mode := range []struct {
		name string
		full bool
	}{{"deltas", false}, {"full-state", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _ := gen.Parse()
				b.StartTimer()
				r := dataplane.Run(net, dataplane.Options{FullStateConvergence: mode.full})
				if !r.Converged {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 / §4.2.2: BDD variable order. The paper orders header fields by
// constraint frequency with MSB-first bits. The ablation compiles the same
// prefix corpus with LSB-first bit order and reports total BDD nodes.

func BenchmarkVarOrder(b *testing.B) {
	for _, arm := range []struct {
		name   string
		msbTop bool
	}{{"msb-first", true}, {"lsb-first", false}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(float64(varOrderNodes(arm.msbTop)), "total-bdd-nodes")
			}
		})
	}
}

// varOrderNodes compiles the disjunction of 512 prefixes (lengths 16–31)
// on a fresh 32-variable factory, the address's most significant bit at
// the top of the order when msbTop and at the bottom otherwise, and
// returns the factory's node count.
func varOrderNodes(msbTop bool) int {
	f := bdd.NewFactory(32)
	total := bdd.False
	for i := 0; i < 512; i++ {
		p := ip4.Prefix{Addr: ip4.Addr(0x0a000000 | uint32(i)<<12), Len: uint8(16 + i%16)}
		r := bdd.True
		for bit := int(p.Len) - 1; bit >= 0; bit-- {
			v := bit
			if !msbTop {
				v = 31 - bit
			}
			if p.Addr.Bit(bit) {
				r = f.And(f.Var(v), r)
			} else {
				r = f.And(f.NVar(v), r)
			}
		}
		total = f.Or(total, r)
	}
	return f.Size()
}

// ---------------------------------------------------------------------------
// E9 / §4.2.3 ablations.

// The ablations below time BDD work on a fresh factory every iteration:
// a factory reused across iterations answers from its operation cache from
// the second iteration on, which times cache hits, not the optimization.
// Building the factory (graph, analysis, encoder) happens outside the
// timer.

// BenchmarkCompress: graph compression on/off for a full all-sources
// reachability pass.
func BenchmarkCompress(b *testing.B) {
	dp := compressDataPlane()
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"compressed", true}, {"uncompressed", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := reach.NewWithOptions(fwdgraph.New(dp), reach.Options{Compress: mode.compress})
				edges = a.EdgeCount()
				b.StartTimer()
				a.Forward(a.SourceSets(bdd.True))
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// compressDataPlane simulates the edge-ACL fabric the compression
// ablation runs on.
func compressDataPlane() *dataplane.Result {
	net, _ := netgen.Fabric(netgen.FabricParams{Name: "gc", Spines: 2, Pods: 3,
		AggPerPod: 2, TorPerPod: 4, HostNetsPerTor: 1, Multipath: true, EdgeACLs: true}).Parse()
	return dataplane.Run(net, dataplane.Options{})
}

// BenchmarkReverse: single-destination queries via backward propagation vs
// one forward pass per source.
func BenchmarkReverse(b *testing.B) {
	net, _ := netgen.Fabric(netgen.FabricParams{Name: "rv", Spines: 2, Pods: 3,
		AggPerPod: 2, TorPerPod: 4, HostNetsPerTor: 1, Multipath: true}).Parse()
	dp := dataplane.Run(net, dataplane.Options{})
	dst := net.DeviceNames()[3]
	// Sanity: both must agree.
	a := reach.New(fwdgraph.New(dp))
	back := a.DestReachability(dst, bdd.True)
	fwd := a.DestReachabilityForward(dst, bdd.True)
	if len(back) != len(fwd) {
		b.Fatalf("reverse/forward disagree: %d vs %d sources", len(back), len(fwd))
	}
	for _, arm := range []struct {
		name  string
		query func(a *reach.Analysis) map[reach.SourceLoc]bdd.Ref
	}{
		{"backward", func(a *reach.Analysis) map[reach.SourceLoc]bdd.Ref { return a.DestReachability(dst, bdd.True) }},
		{"forward-per-source", func(a *reach.Analysis) map[reach.SourceLoc]bdd.Ref {
			return a.DestReachabilityForward(dst, bdd.True)
		}},
	} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := reach.New(fwdgraph.New(dp))
				b.StartTimer()
				arm.query(a)
			}
		})
	}
}

// BenchmarkAllPairs: the default all-pairs Reachability question answered
// from one backward pass per sink kind (the default sources) vs one
// forward pass per host-facing source (the same sources as an explicit
// list). Both arms include example picking and traceroute. bdd-ops is the
// factory's operation count per question.
func BenchmarkAllPairs(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "ap", Spines: 2, Pods: 3,
		AggPerPod: 2, TorPerPod: 4, HostNetsPerTor: 2, Multipath: true, EdgeACLs: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	for _, arm := range []struct {
		name     string
		explicit bool
	}{{"backward", false}, {"forward-per-source", true}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := core.LoadTextWith(pipeline.Disabled(), texts)
				var params core.ReachabilityParams
				if arm.explicit {
					params.Sources = s.HostFacing()
				}
				f := s.Analysis().Enc.F
				ops0 := f.OpCount()
				b.StartTimer()
				if len(s.Reachability(params)) == 0 {
					b.Fatal("no flows")
				}
				ops += f.OpCount() - ops0
			}
			b.ReportMetric(float64(ops)/float64(b.N), "bdd-ops")
		})
	}
}

// BenchmarkRelProd: the fused AND+exists+rename NAT application vs the
// three-step pipeline (§4.2.3 "we implemented an optimized BDD operation
// to execute these three steps simultaneously"). One op applies the NAT
// to 64 packet sets on a fresh encoder.
func BenchmarkRelProd(b *testing.B) {
	for _, arm := range []struct {
		name  string
		apply func(enc *hdr.Enc, set bdd.Ref, t *hdr.Transform) bdd.Ref
	}{{"fused", (*hdr.Enc).Apply}, {"three-step", (*hdr.Enc).ApplyNaive}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				enc, full, sets := relProdInput()
				b.StartTimer()
				for _, set := range sets {
					arm.apply(enc, set, full)
				}
			}
		})
	}
}

// relProdInput builds, on a fresh encoder, a guarded source-NAT
// transform and the 64 TCP packet sets the relprod ablation applies it to.
func relProdInput() (*hdr.Enc, *hdr.Transform, []bdd.Ref) {
	enc := hdr.NewEnc(0)
	tr := enc.NewTransform().
		SetField(hdr.SrcIP, uint32(ip4.MustParseAddr("100.64.0.1"))).
		SetFieldPool(hdr.SrcPort, 1024, 65535)
	guard := enc.Prefix(hdr.SrcIP, ip4.MustParsePrefix("10.0.0.0/8"))
	full := enc.Guarded(guard, tr, enc.NewTransform())
	sets := make([]bdd.Ref, 64)
	for i := range sets {
		sets[i] = enc.F.AndN(
			enc.Prefix(hdr.DstIP, ip4.Prefix{Addr: ip4.Addr(uint32(i) << 24), Len: 8}),
			enc.Prefix(hdr.SrcIP, ip4.Prefix{Addr: ip4.Addr(0x0a000000 + uint32(i)<<8), Len: 24}),
			enc.FieldEq(hdr.Protocol, hdr.ProtoTCP),
		)
	}
	return enc, full, sets
}

// BenchmarkParallelism: simulation speedup from intra-color parallelism
// (§4.1.1 "we can also speed up the computation by introducing high levels
// of parallelism") on a 204-device fat-tree, under the phase-fused colored
// schedule. Each worker count reports allocs/op plus two metrics:
//
//   - "speedup": wall-clock ratio of the serial ns/op to this run's
//     ns/op. Physically bounded by the host's core count — on a 1-CPU CI
//     box this hovers around 1.0 no matter how good the schedule is.
//   - "sched-speedup": the schedule-model speedup. One traced serial run
//     records every phase task's duration (dataplane.SchedTrace); the
//     model then replays the same tasks under the pool's greedy
//     list-scheduling onto p virtual workers and reports total/(serial
//     residue + Σ per-phase makespans). This measures what the fused
//     schedule achieves given p real cores, independent of host core
//     count. Floor: at 8 workers it must be at least 4.0.
//
// The "parse" sub-benchmark measures the parse pool for real: the
// wall-clock speedup of 2-worker over serial ParseCtx on the 92-device
// perfbench fabric shape, uncached (a fresh pipeline per parse). The arms
// alternate, each parse starts from a collected heap (a parse allocates
// about 2.3 MB, under the next GC goal, so no collection lands inside a
// timed parse), and each arm is timed by its 25th-percentile parse: on a
// shared 2-vCPU host another tenant often holds one vCPU for a while
// (steal), which slows many 2-worker parses without saying anything about
// the pool. Floor: at least 1.3x, asserted on the last (reported) run, on
// hosts with two or more CPUs. With collections left to land inside
// parses the 2-worker arm pays for them on a busy CPU while the serial
// arm's collector runs on the idle one; EXPERIMENTS E10 records that
// figure too.
func BenchmarkParallelism(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "pp", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	if n := gen.Devices; len(n) < 200 {
		b.Fatalf("fabric too small: %d devices", len(n))
	}

	// One traced serial run feeds the schedule model for every level.
	trace := &dataplane.SchedTrace{}
	netT, _ := gen.Parse()
	base := time.Now()
	rT := dataplane.Run(netT, dataplane.Options{
		Parallelism: 1,
		Schedule:    dataplane.ScheduleColored,
		Trace:       trace,
		NowNanos:    func() int64 { return time.Since(base).Nanoseconds() },
	})
	if !rT.Converged {
		b.Fatal("traced run did not converge")
	}
	tracedNs := time.Since(base).Nanoseconds()

	levels := []int{1, 2, 4, 8}
	if g := runtime.GOMAXPROCS(0); g > 8 {
		levels = append(levels, g)
	}
	var serialNs float64
	for _, par := range levels {
		par := par
		b.Run(fmt.Sprintf("dev-%d/workers-%d", len(gen.Devices), par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, _ := gen.Parse()
				b.StartTimer()
				r := dataplane.Run(net, dataplane.Options{Parallelism: par, Schedule: dataplane.ScheduleColored})
				if !r.Converged {
					b.Fatal("no convergence")
				}
			}
			nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if par == 1 {
				serialNs = nsOp
			} else if serialNs > 0 {
				b.ReportMetric(serialNs/nsOp, "speedup")
			}
			if par > 1 {
				sched := trace.ModelSpeedup(tracedNs, par)
				b.ReportMetric(sched, "sched-speedup")
				if par == 8 && sched < 4.0 {
					b.Fatalf("sched-speedup %.2f at 8 workers below the 4.0 floor", sched)
				}
			}
		})
	}

	pgen := netgen.Fabric(netgen.FabricParams{Name: "pp", Spines: 4, Pods: 4,
		AggPerPod: 4, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(pgen.Devices))
	for _, dt := range pgen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	parseSpeedup := 0.0 // zero when -bench filters the sub-benchmark out
	b.Run(fmt.Sprintf("parse/dev-%d", len(texts)), func(b *testing.B) {
		b.ReportAllocs()
		var arms [2][]time.Duration // serial, 2 workers
		for i := 0; i < b.N; i++ {
			for arm, workers := range []int{-1, 2} {
				pl := pipeline.New(pipeline.Config{ParseWorkers: workers})
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				t0 := time.Now()
				net, _, _, diags := pl.ParseCtx(context.Background(), texts)
				arms[arm] = append(arms[arm], time.Since(t0))
				if len(net.Devices) != len(texts) || len(diags) != 0 {
					b.Fatalf("parse with %d workers: %d of %d devices, diags %v", workers, len(net.Devices), len(texts), diags)
				}
			}
		}
		var p25 [2]time.Duration
		for arm, ds := range arms {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			p25[arm] = ds[len(ds)/4]
		}
		parseSpeedup = float64(p25[0]) / float64(p25[1])
		b.ReportMetric(float64(p25[0].Nanoseconds())/1e6, "serial-p25-ms")
		b.ReportMetric(float64(p25[1].Nanoseconds())/1e6, "workers-2-p25-ms")
		b.ReportMetric(parseSpeedup, "speedup")
	})
	if runtime.GOMAXPROCS(0) >= 2 && parseSpeedup > 0 && parseSpeedup < 1.3 {
		b.Fatalf("parse speedup %.2fx at 2 workers below the 1.3x floor", parseSpeedup)
	}
}

// ---------------------------------------------------------------------------
// E9: staged pipeline with content-addressed caching — the edit-one-
// device-re-verify loop (the dominant operator workload per the config
// test-coverage literature). "cold-full" loads both snapshots through a
// caching-disabled pipeline and recomputes everything, which is the
// pre-pipeline behavior; "incremental" edits a warm baseline on a caching
// pipeline, so unchanged parse artifacts are reused, the baseline's
// shared backward passes stay memoized on its analysis, and the edited
// snapshot's Reachability and CompareWith read its own passes. The
// incremental variant reports a speedup-vs-cold metric plus the pipeline
// cache/stage counters and the routing intern-pool counters.
func BenchmarkIncrementalCompare(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "inc", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	if len(gen.Devices) < 200 {
		b.Fatalf("fabric too small: %d devices", len(gen.Devices))
	}
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	const tor = "inc-p05-tor09"
	if _, ok := texts[tor]; !ok {
		b.Fatalf("no device %s", tor)
	}
	// Each iteration applies a different edit (so the data-plane stage
	// never gets a trivial whole-snapshot cache hit): null-route half of
	// the first ToR's host subnet — breaking delivered flows — plus a
	// varying unused prefix.
	edited := func(i int) string {
		t := strings.TrimSuffix(texts[tor], "end\n")
		return t + fmt.Sprintf("ip route 203.0.%d.0 255.255.255.0 Null0\n", i%256) +
			"ip route 10.0.0.0 255.255.255.128 Null0\nend\n"
	}
	verify := func(b *testing.B, base, after *core.Snapshot) {
		if after.DataPlane().Fingerprint() == 0 {
			b.Fatal("zero fingerprint")
		}
		if len(after.Reachability(core.ReachabilityParams{})) == 0 {
			b.Fatal("no flows")
		}
		if len(base.CompareWith(after)) == 0 {
			b.Fatal("blackhole edit must break flows")
		}
	}

	var coldNs float64
	b.Run("cold-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := core.LoadTextWith(pipeline.Disabled(), texts)
			afterTexts := make(map[string]string, len(texts))
			for k, v := range texts {
				afterTexts[k] = v
			}
			afterTexts[tor] = edited(i)
			after := core.LoadTextWith(pipeline.Disabled(), afterTexts)
			verify(b, base, after)
		}
		coldNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	b.Run("incremental", func(b *testing.B) {
		pl := pipeline.New(pipeline.Config{})
		base := core.LoadTextWith(pl, texts)
		if len(base.Reachability(core.ReachabilityParams{})) == 0 {
			b.Fatal("no baseline flows")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			after := base.Edit(map[string]string{tor: edited(i)})
			verify(b, base, after)
		}
		b.StopTimer()
		nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if coldNs > 0 {
			b.ReportMetric(coldNs/nsOp, "speedup")
		}
		st := pl.Stats()
		b.ReportMetric(float64(st.Store.Hits), "cache-hits")
		b.ReportMetric(float64(st.Store.Misses), "cache-misses")
		b.ReportMetric(float64(st.Store.Evictions), "cache-evictions")
		stage := func(name string, t pipeline.StageTimes) {
			b.ReportMetric(float64(t.ColdNs)/1e6, "stage-"+name+"-cold-ms")
			b.ReportMetric(float64(t.WarmNs)/1e6, "stage-"+name+"-warm-ms")
		}
		stage("parse", st.Parse)
		stage("dp", st.DataPlane)
		stage("graph", st.Graph)
		stage("analysis", st.Analysis)
		ist := base.DataPlane().Pool.Stats()
		b.ReportMetric(float64(ist.AttrHits), "intern-attr-hits")
		b.ReportMetric(float64(ist.AttrMisses), "intern-attr-misses")
		b.ReportMetric(float64(ist.PathHits), "intern-path-hits")
		b.ReportMetric(float64(ist.PathMisses), "intern-path-misses")
	})
}

// ---------------------------------------------------------------------------
// E12: the resilient analysis service. `request` measures steady-state
// HTTP question latency against a warm batfishd engine and reports the
// service's own p50/p99 window; `warm-restart` measures a full
// start → load → first-answer cycle cold (empty cache directory) vs warm
// (persistent cache populated by a previous "process"), the restart
// scenario the disk tier exists for.

func BenchmarkServer(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "sv", Spines: 2, Pods: 4,
		AggPerPod: 2, TorPerPod: 6, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	body, err := json.Marshal(map[string]any{"configs": texts})
	if err != nil {
		b.Fatal(err)
	}
	// startAndAsk boots a server over httptest, loads the snapshot, and
	// answers one reachability question; it returns the server for metric
	// scraping and keeps ts open until cleanup.
	startAndAsk := func(b *testing.B, cacheDir string) (*server.Server, *httptest.Server) {
		b.Helper()
		srv, err := server.New(server.Config{CacheDir: cacheDir, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Post(ts.URL+"/snapshots/prod", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("load: %d", resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + "/snapshots/prod/reachability")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("question: %d", resp.StatusCode)
		}
		return srv, ts
	}

	b.Run("request", func(b *testing.B) {
		srv, ts := startAndAsk(b, "")
		defer ts.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(ts.URL + "/snapshots/prod/reachability")
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		m := srv.Metrics()
		b.ReportMetric(m.P50Ms, "server-p50-ms")
		b.ReportMetric(m.P99Ms, "server-p99-ms")
	})

	b.Run("warm-restart", func(b *testing.B) {
		dir := b.TempDir()
		start := time.Now()
		_, ts := startAndAsk(b, dir) // cold: populates the persistent cache
		coldNs := float64(time.Since(start).Nanoseconds())
		ts.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, ts := startAndAsk(b, dir)
			ts.Close()
		}
		b.StopTimer()
		warmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if warmNs > 0 {
			b.ReportMetric(coldNs/warmNs, "server-warm-speedup")
		}
		b.ReportMetric(coldNs/1e6, "server-cold-start-ms")
		b.ReportMetric(warmNs/1e6, "server-warm-start-ms")
	})
}

// BenchmarkDataPlaneArtifact is the disk tier's data-plane layer: one
// UnmarshalResult per op of a converged result's artifact, on the
// service-mix fabric (34 devices) and NET2. It reports the artifact size
// and decode-over-run — decode CPU over the CPU of one serial
// dataplane.Run on the same net, the ratio a disk hit must keep well
// below 1 to be worth reading. Floor: decode-over-run at most 0.5 on
// both nets.
func BenchmarkDataPlaneArtifact(b *testing.B) {
	for _, tc := range []struct {
		name string
		snap func() *netgen.Snapshot
	}{
		{"service", func() *netgen.Snapshot {
			return netgen.Fabric(netgen.FabricParams{Name: "sv", Spines: 2, Pods: 4,
				AggPerPod: 2, TorPerPod: 6, HostNetsPerTor: 1, Multipath: true})
		}},
		{"NET2", netgen.Catalog()[1].Gen},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, _ := tc.snap().Parse()
			serial := dataplane.Options{Parallelism: 1}
			const runs = 3
			cpu0 := processCPU(b)
			for i := 0; i < runs; i++ {
				dataplane.Run(net, serial)
			}
			runCPU := (processCPU(b) - cpu0) / runs
			dp := dataplane.Run(net, serial)
			art, err := dataplane.MarshalResult(dp)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 = processCPU(b)
			for i := 0; i < b.N; i++ {
				if _, err := dataplane.UnmarshalResult(art, net); err != nil {
					b.Fatal(err)
				}
			}
			decodeCPU := (processCPU(b) - cpu0) / time.Duration(b.N)
			b.StopTimer()
			ratio := float64(decodeCPU) / float64(runCPU)
			b.ReportMetric(float64(len(art)), "artifact-bytes")
			b.ReportMetric(ratio, "decode-over-run")
			if ratio > 0.5 {
				b.Fatalf("decode-over-run %.2f above the 0.5 ceiling (decode %v, run %v)", ratio, decodeCPU, runCPU)
			}
		})
	}
}

// processCPU returns the process's user plus system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---------------------------------------------------------------------------
// E13: the failure-scenario sweep. A k=1 link+node sweep over the
// dev-204 fabric with one pod-local monitored flow: blast-radius
// equivalence classes prune the scenarios whose failed element cannot
// touch the monitored cone (the spines and nine of the ten pods), and the
// survivors run on a worker pool. "k1-links-nodes" asserts the sweep's
// floors — ≥50% of scenarios pruned, ≥5x faster than naive cold
// per-scenario re-analysis — and spot-checks sampled executed and pruned
// verdicts against independent cold recomputations, reporting all of it
// as sweep-* metrics. Every class a worker runs shares its runtime's BDD
// factory; the scoped classes here add few nodes, so a worker rarely
// outgrows its runtime's factory bound and rebuilds. "plan" runs
// planning alone, asserting the same ≥50% floor on (enumerated −
// classes) / enumerated, a lower bound on the executed prune ratio (each
// class executes at most one scenario). `make bench-check` runs both.
func BenchmarkSweep(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "swp", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	if len(gen.Devices) < 200 {
		b.Fatalf("fabric too small: %d devices", len(gen.Devices))
	}
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	const srcTor, dstTor = "swp-p03-tor01", "swp-p03-tor02"
	var srcs []reach.SourceLoc
	for _, s := range base.HostFacing() {
		if s.Device == srcTor {
			srcs = append(srcs, s)
		}
	}
	if len(srcs) == 0 {
		b.Fatalf("no host-facing sources on %s", srcTor)
	}
	var dst ip4.Prefix
	for _, in := range base.Net.Devices[dstTor].InterfaceNames() {
		if strings.HasPrefix(in, "host") {
			p := base.Net.Devices[dstTor].Interfaces[in].Addresses[0]
			dst = ip4.Prefix{Addr: p.Addr, Len: p.Len}.Canonical()
			break
		}
	}
	// One worker per available CPU: each worker owns a private runtime
	// whose construction costs a full base analysis, so oversubscribing a
	// small machine only multiplies that fixed cost.
	spec := sweep.Spec{Workers: runtime.GOMAXPROCS(0), Sources: srcs, DstIPs: []ip4.Prefix{dst}}
	params := core.ReachabilityParams{Sources: srcs, DstIPs: []ip4.Prefix{dst}}

	// scenarioFromID reverses Element.ID for the cold replays (only the
	// link/node kinds this sweep enumerates).
	scenarioFromID := func(id string) core.Scenario {
		var sc core.Scenario
		for _, el := range strings.Split(id, "+") {
			kind, rest, _ := strings.Cut(el, ":")
			switch kind {
			case "node":
				sc.NodesDown = append(sc.NodesDown, rest)
			case "link":
				halves := strings.Split(rest, "<->")
				n1, i1, _ := strings.Cut(halves[0], ":")
				n2, i2, _ := strings.Cut(halves[1], ":")
				sc.LinksDown = append(sc.LinksDown,
					topo.Link{Node1: n1, Iface1: i1, Node2: n2, Iface2: i2})
			default:
				b.Fatalf("unsupported element in %q", el)
			}
		}
		return sc
	}
	// coldRun replays one scenario from scratch — fresh cache-disabled
	// pipeline, full parse and simulation — returning the per-source
	// delivery verdicts and the wall time: the "no sweep engine" baseline.
	coldRun := func(id string) (map[reach.SourceLoc]bool, time.Duration) {
		t0 := time.Now()
		snap := core.LoadTextWith(pipeline.Disabled(), texts).Apply(scenarioFromID(id))
		flows := snap.Reachability(params)
		if snap.Degraded() {
			b.Fatalf("cold replay of %s degraded", id)
		}
		got := make(map[reach.SourceLoc]bool, len(flows))
		for _, fr := range flows {
			got[fr.Source] = fr.Delivered != bdd.False
		}
		return got, time.Since(t0)
	}
	checkAgainstCold := func(v sweep.Verdict, cold map[reach.SourceLoc]bool) {
		for _, sv := range v.Sources {
			if cold[reach.SourceLoc{Device: sv.Device, Iface: sv.Iface}] != sv.Delivered {
				b.Fatalf("scenario %s (executed=%v): stamped verdict for %s/%s differs from cold replay",
					v.Scenario, v.Executed, sv.Device, sv.Iface)
			}
		}
	}

	b.Run("plan", func(b *testing.B) {
		var plan *sweep.Plan
		for i := 0; i < b.N; i++ {
			p, err := sweep.NewPlan(base, spec)
			if err != nil {
				b.Fatal(err)
			}
			plan = p
		}
		b.StopTimer()
		enum, classes := plan.Enumerated(), plan.Classes()
		bound := float64(enum-classes) / float64(enum)
		b.ReportMetric(float64(enum), "sweep-enumerated")
		b.ReportMetric(float64(classes), "sweep-classes")
		b.ReportMetric(bound, "sweep-prune-bound")
		if bound < 0.5 {
			b.Fatalf("prune bound %.2f below the 0.5 floor (%d classes of %d scenarios)", bound, classes, enum)
		}
	})

	b.Run("k1-links-nodes", func(b *testing.B) {
		var res *sweep.Result
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := sweep.NewPlan(base, spec)
			if err != nil {
				b.Fatal(err)
			}
			r, err := plan.Execute(context.Background(), nil)
			if err != nil {
				b.Fatal(err)
			}
			if r.Degraded {
				b.Fatal("sweep degraded")
			}
			res = r
		}
		b.StopTimer()
		wallMs := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1e6

		pruneRatio := float64(res.Pruned) / float64(res.Enumerated)
		if pruneRatio < 0.5 {
			b.Fatalf("prune ratio %.2f below the 0.5 floor (%d of %d pruned)",
				pruneRatio, res.Pruned, res.Enumerated)
		}
		// Naive baseline: mean of three sampled cold per-scenario replays,
		// extrapolated to the full enumeration. The samples double as
		// verdict-identity checks for executed representatives; three more
		// pruned scenarios check that stamped verdicts match cold replays.
		var coldTotal time.Duration
		coldRuns, prunedChecked := 0, 0
		for _, v := range res.Verdicts {
			if v.Executed && coldRuns < 2 {
				cold, d := coldRun(v.Scenario)
				checkAgainstCold(v, cold)
				coldTotal += d
				coldRuns++
			}
			// Pruned scenarios include the baseline class (Class == ""):
			// elements wholly outside the monitored cone, stamped from the
			// no-failure verdicts — the pruning claim under test.
			if !v.Executed && prunedChecked < 2 {
				cold, _ := coldRun(v.Scenario)
				checkAgainstCold(v, cold)
				prunedChecked++
			}
		}
		if coldRuns == 0 || prunedChecked == 0 {
			b.Fatalf("sampling found %d executed / %d pruned scenarios", coldRuns, prunedChecked)
		}
		naiveMs := float64(coldTotal.Nanoseconds()) / float64(coldRuns) / 1e6 * float64(res.Enumerated)
		speedup := naiveMs / wallMs
		if speedup < 5 {
			b.Fatalf("sweep speedup %.1fx below the 5x floor (wall %.0fms, naive est %.0fms)",
				speedup, wallMs, naiveMs)
		}

		b.ReportMetric(float64(res.Enumerated), "sweep-enumerated")
		b.ReportMetric(float64(res.Classes), "sweep-classes")
		b.ReportMetric(float64(res.Executed), "sweep-executed")
		b.ReportMetric(float64(res.Pruned), "sweep-pruned")
		b.ReportMetric(pruneRatio, "sweep-prune-ratio")
		b.ReportMetric(float64(res.Violations), "sweep-violations")
		b.ReportMetric(wallMs, "sweep-wall-ms")
		b.ReportMetric(naiveMs, "sweep-naive-est-ms")
		b.ReportMetric(speedup, "sweep-speedup")
		b.ReportMetric(float64(coldRuns+prunedChecked), "sweep-spotcheck-ok")
	})
}

// ---------------------------------------------------------------------------
// E14: the clustered service. Two costs define the mode: what a
// forwarding hop adds to a question answered by another member, and how
// long the cluster takes to evict a dead member (the window during which
// its snapshots are unreachable before failover re-homes them). Reported
// as cluster-* metrics. Each sub-benchmark leaves its last (reported)
// run's figure in the variables below, and its floor is asserted on that
// once it returns: a single-episode warm-up run is too noisy to judge.
func BenchmarkCluster(b *testing.B) {
	gen := netgen.Fabric(netgen.FabricParams{Name: "cl", Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, dt := range gen.Devices {
		texts[dt.Hostname] = dt.Text
	}
	body, err := json.Marshal(map[string]any{"configs": texts})
	if err != nil {
		b.Fatal(err)
	}
	hb := 50 * time.Millisecond
	startNode := func(b *testing.B, id, join string) (*cluster.Node, *httptest.Server) {
		b.Helper()
		srv, err := server.New(server.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		n, err := cluster.NewNode(cluster.Config{ID: id, Server: srv, Heartbeat: hb})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		b.Cleanup(ts.Close)
		b.Cleanup(n.Kill)
		if err := n.Start(context.Background(), ts.URL, join); err != nil {
			b.Fatal(err)
		}
		return n, ts
	}
	get := func(b *testing.B, url string) {
		b.Helper()
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
	}

	// Zero values pass every floor, so a sub-benchmark -bench filters out
	// asserts nothing; heirRate starts negative for the same reason.
	var overhead, failP99, failBudget, coordP99, coordBudget float64
	heirRate := -1.0

	b.Run("forward-overhead", func(b *testing.B) {
		n1, ts1 := startNode(b, "m1", "")
		_, ts2 := startNode(b, "m2", ts1.URL)
		// Find a snapshot m2 owns so asking through m1 costs one hop.
		name := ""
		for i := 0; i < 4096 && name == ""; i++ {
			cand := fmt.Sprintf("snap%04d", i)
			if cluster.OwnerOf(n1.View().Members, cand).ID == "m2" {
				name = cand
			}
		}
		if name == "" {
			b.Fatal("no m2-owned snapshot name found")
		}
		resp, err := http.Post(ts2.URL+"/snapshots/"+name, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("load: %d", resp.StatusCode)
		}
		q := "/snapshots/" + name + "/reachability"
		get(b, ts2.URL+q) // warm the snapshot before timing anything

		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			get(b, ts2.URL+q) // owner answers directly
		}
		localNs := float64(time.Since(t0).Nanoseconds()) / float64(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, ts1.URL+q) // one forwarding hop through m1
		}
		b.StopTimer()
		fwdNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(localNs/1e6, "cluster-local-question-ms")
		b.ReportMetric(fwdNs/1e6, "cluster-forwarded-question-ms")
		b.ReportMetric((fwdNs-localNs)/1e6, "cluster-forward-hop-ms")
		if localNs > 0 {
			overhead = fwdNs / localNs
			b.ReportMetric(overhead, "cluster-forward-overhead")
		}
	})
	if overhead > 2.0 {
		b.Fatalf("cluster-forward-overhead %.2fx above the 2.0x ceiling", overhead)
	}

	b.Run("failover", func(b *testing.B) {
		coord, cts := startNode(b, "m1", "")
		// SuspectAfter defaults to two heartbeats; the acceptance budget is
		// that window plus detector-tick and heartbeat slack.
		budget := 4 * hb
		episodes := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("victim-%d", i)
			n, ts := startNode(b, id, cts.URL)
			// Joined synchronously; kill it and time the eviction.
			ts.Listener.Close()
			ts.CloseClientConnections()
			n.Kill()
			t0 := time.Now()
			for {
				in := false
				for _, m := range coord.View().Members {
					if m.ID == id {
						in = true
						break
					}
				}
				if !in {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			episodes = append(episodes, time.Since(t0))
		}
		b.StopTimer()
		sort.Slice(episodes, func(i, j int) bool { return episodes[i] < episodes[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(episodes)-1))
			return float64(episodes[idx].Nanoseconds()) / 1e6
		}
		failP99, failBudget = pct(0.99), float64(budget.Nanoseconds())/1e6
		b.ReportMetric(pct(0.50), "cluster-failover-p50-ms")
		b.ReportMetric(failP99, "cluster-failover-p99-ms")
		b.ReportMetric(failBudget, "cluster-failover-budget-ms")
	})
	if failP99 > failBudget {
		b.Fatalf("cluster-failover-p99-ms %.0f over its %.0f ms budget", failP99, failBudget)
	}

	// A node starter with a disk cache: the coordinator lease and the
	// snapshot manifests both live in it, so every member opens the same
	// directory.
	startDiskNode := func(b *testing.B, id, join, dir string) (*cluster.Node, *httptest.Server, *server.Server) {
		b.Helper()
		srv, err := server.New(server.Config{Seed: 1, CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		n, err := cluster.NewNode(cluster.Config{ID: id, Server: srv, Heartbeat: hb})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(n.Handler())
		b.Cleanup(ts.Close)
		b.Cleanup(n.Kill)
		if err := n.Start(context.Background(), ts.URL, join); err != nil {
			b.Fatal(err)
		}
		return n, ts, srv
	}

	b.Run("coordinator-failover", func(b *testing.B) {
		// ISSUE 9 exit bar: losing the coordinator may cost at most twice
		// the member-eviction budget — detection is the same suspicion
		// window, the extra factor covers waiting out the dead
		// coordinator's last lease grant before the race is winnable.
		budget := 2 * (4 * hb)
		episodes := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dir := b.TempDir()
			coord, cts, _ := startDiskNode(b, "coord", "", dir)
			member, _, _ := startDiskNode(b, "member", cts.URL, dir)
			cts.Listener.Close()
			cts.CloseClientConnections()
			coord.Kill()
			t0 := time.Now()
			for member.Metrics().Role != cluster.RoleCoordinator {
				if time.Since(t0) > 20*budget {
					b.Fatalf("member never promoted (iteration %d): %+v", i, member.Metrics())
				}
				time.Sleep(2 * time.Millisecond)
			}
			episodes = append(episodes, time.Since(t0))
		}
		b.StopTimer()
		sort.Slice(episodes, func(i, j int) bool { return episodes[i] < episodes[j] })
		pct := func(p float64) float64 {
			idx := int(p * float64(len(episodes)-1))
			return float64(episodes[idx].Nanoseconds()) / 1e6
		}
		coordP99, coordBudget = pct(0.99), float64(budget.Nanoseconds())/1e6
		b.ReportMetric(pct(0.50), "cluster-coord-failover-p50-ms")
		b.ReportMetric(coordP99, "cluster-coord-failover-p99-ms")
		b.ReportMetric(coordBudget, "cluster-coord-failover-budget-ms")
	})
	if coordP99 > coordBudget {
		b.Fatalf("cluster-coord-failover-p99-ms %.0f over its %.0f ms budget", coordP99, coordBudget)
	}

	b.Run("heir-rehydrate", func(b *testing.B) {
		// Owner and heir share one cache directory. The owner loads the
		// snapshot and answers once, committing its data-plane artifact,
		// then dies; the heir's first answer rehydrates from the shared
		// directory. The warm-hit rate is the heir's data-plane disk hits
		// during that request over the one artifact it needs: 1.0 = no
		// re-simulation. The manifest read is a disk hit too, but not an
		// artifact, so it is left out (the request cannot succeed without
		// it); parsing re-runs, as parse artifacts are memory-only.
		var rates []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dir := b.TempDir()
			heir, hts, hsrv := startDiskNode(b, "heir", "", dir)
			owner, ots, _ := startDiskNode(b, "owner", hts.URL, dir)
			name := ""
			for j := 0; j < 4096 && name == ""; j++ {
				cand := fmt.Sprintf("snap%04d", j)
				if cluster.OwnerOf(heir.View().Members, cand).ID == "owner" {
					name = cand
				}
			}
			if name == "" {
				b.Fatal("no owner-owned snapshot name found")
			}
			resp, err := http.Post(ots.URL+"/snapshots/"+name, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("load: %d", resp.StatusCode)
			}
			q := "/snapshots/" + name + "/reachability"
			get(b, ots.URL+q)
			ots.Listener.Close()
			ots.CloseClientConnections()
			owner.Kill()
			// The heir coordinates, so its own detector evicts the owner.
			t0 := time.Now()
			for len(heir.View().Members) != 1 {
				if time.Since(t0) > 30*time.Second {
					b.Fatalf("owner never evicted (iteration %d)", i)
				}
				time.Sleep(2 * time.Millisecond)
			}
			hits0 := hsrv.Metrics().Pipeline.DataPlane.DiskHits
			get(b, hts.URL+q)
			rates = append(rates, float64(hsrv.Metrics().Pipeline.DataPlane.DiskHits-hits0))
		}
		b.StopTimer()
		heirRate = 0
		for _, r := range rates {
			heirRate += r
		}
		heirRate /= float64(len(rates))
		b.ReportMetric(heirRate, "cluster-heir-warm-hit-rate")
	})
	if heirRate >= 0 && heirRate < 0.9 {
		b.Fatalf("cluster-heir-warm-hit-rate %.2f below the 0.90 floor", heirRate)
	}
}
