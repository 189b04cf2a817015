// Command batfish analyzes network configuration snapshots from the
// command line: load a directory of configuration files, run questions,
// trace flows, and regenerate the paper's evaluation tables.
//
// Usage:
//
//	batfish -snapshot DIR [-q QUESTION] [flags]
//	batfish -table1            # regenerate Table 1 (network inventory)
//	batfish -table2 [-nets N]  # regenerate Table 2 (performance)
//	batfish -demo figure1      # reproduce Figure 1's convergence behavior
//
// Questions: refs, unused, dupips, ntp, bgp, routes (-node), reachability,
// multipath, loops, traceroute (-node -iface -src -dst -dport).
//
// -cachestats prints the staged pipeline's artifact-cache counters and
// per-stage wall times (cold vs warm) after the run.
//
// Failure containment flags:
//
//	-timeout D   bound the whole run by a context deadline; on expiry the
//	             pipeline stops at its next checkpoint and partial results
//	             are reported (exit code 3)
//	-faults SPEC deterministic fault injection for chaos testing, e.g.
//	             "parse:leaf1=panic,dataplane:*=sleep:50ms" (see
//	             internal/faults)
//
// Exit codes: 0 success, 1 error, 2 usage, 3 cancelled/deadline exceeded,
// 4 degraded (quarantined devices, budget trips, or recovered panics —
// results are partial but usable). Degraded runs print a diagnostics
// summary on stderr.
//
// Failure sweep (-sweep): enumerate all k-failure scenarios (links, nodes,
// BGP sessions per -fail), prune provably-equivalent ones via blast-radius
// equivalence classes, and run the survivors across a worker pool:
//
//	batfish -snapshot DIR -sweep [-k 1|2] [-fail links,nodes,sessions]
//	        [-sweep-dst CIDR[,CIDR]] [-sweep-src DEV/IFACE,...]
//	        [-sweep-workers N]
//
// In -sweep mode the exit code is the number of scenarios that regress a
// monitored flow (capped at 100) so scripts can gate on "any violating
// failure"; flag errors still exit 2 before the sweep starts, 101 is
// cancelled, 102 degraded without a countable violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/batfish"
	"repro/internal/bdd"
	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/faults"
	"repro/internal/fwdgraph"
	"repro/internal/hdr"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/testnet"
)

// Exit codes distinguishing the degradation states.
const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitCancelled = 3
	exitDegraded  = 4
)

func main() {
	var (
		snapshot  = flag.String("snapshot", "", "directory of configuration files")
		question  = flag.String("q", "refs", "question to ask")
		node      = flag.String("node", "", "device for node-scoped questions")
		iface     = flag.String("iface", "", "interface for traceroute")
		srcIP     = flag.String("src", "", "source IP for traceroute")
		dstIP     = flag.String("dst", "", "destination IP for traceroute")
		dport     = flag.Int("dport", 80, "destination port for traceroute")
		table1    = flag.Bool("table1", false, "print the Table 1 network inventory")
		table2    = flag.Bool("table2", false, "run the Table 2 performance benchmark")
		nets      = flag.Int("nets", 5, "how many catalog networks -table2 runs")
		demo      = flag.String("demo", "", "run a paper demo: figure1, badgadget")
		cacheSt   = flag.Bool("cachestats", false, "print pipeline cache statistics after the run")
		timeout   = flag.Duration("timeout", 0, "deadline for the whole run (0 = none); expiry yields partial results and exit code 3")
		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. \"parse:leaf1=panic,dataplane:*=sleep:50ms\"")
		sweepRun  = flag.Bool("sweep", false, "run a failure-scenario sweep over the snapshot")
		sweepK    = flag.Int("k", 1, "simultaneous failures per sweep scenario (1 or 2)")
		sweepFail = flag.String("fail", "links,nodes", "failure kinds to sweep: comma list of links,nodes,sessions")
		sweepWrk  = flag.Int("sweep-workers", 0, "sweep worker count (0 = GOMAXPROCS)")
		sweepDst  = flag.String("sweep-dst", "", "monitored destination prefixes, comma-separated CIDRs (default: all)")
		sweepSrc  = flag.String("sweep-src", "", "monitored sources as DEV/IFACE, comma-separated (default: host-facing)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batfish: -cpuprofile: %v\n", err)
			os.Exit(exitUsage)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "batfish: -cpuprofile: %v\n", err)
			os.Exit(exitError)
		}
	}
	// main exits via os.Exit (skipping defers), so profiles are flushed
	// here explicitly before every exit path below.
	stopProfiles := func() {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "batfish: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize final live-heap state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "batfish: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}

	if *faultSpec != "" {
		inj, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "batfish: bad -faults: %v\n", err)
			os.Exit(exitUsage)
		}
		restore := faults.Activate(inj)
		defer restore()
		fmt.Fprintf(os.Stderr, "fault injection active: %s\n", inj.Describe())
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	code := exitOK
	switch {
	case *table1:
		printTable1()
	case *table2:
		runTable2(*nets)
	case *demo == "figure1":
		demoFigure1()
	case *demo == "badgadget":
		demoBadGadget()
	case *snapshot != "" && *sweepRun:
		code = runSweep(ctx, *snapshot, *sweepK, *sweepFail, *sweepWrk, *sweepDst, *sweepSrc)
	case *snapshot != "":
		code = runQuestion(ctx, *snapshot, *question, *node, *iface, *srcIP, *dstIP, *dport)
	default:
		flag.Usage()
		os.Exit(exitUsage)
	}
	if *cacheSt {
		printCacheStats()
	}
	stopProfiles()
	os.Exit(code)
}

// printCacheStats reports the shared pipeline's artifact store counters
// and the per-stage wall-time split (cold = computed, warm = cache hit).
func printCacheStats() {
	st := batfish.CacheStats()
	fmt.Fprintf(os.Stderr, "pipeline cache: %d/%d entries, %d hits, %d misses, %d evictions\n",
		st.Store.Entries, st.Store.Capacity, st.Store.Hits, st.Store.Misses, st.Store.Evictions)
	stage := func(name string, t pipeline.StageTimes) {
		fmt.Fprintf(os.Stderr, "  %-9s cold %3d run(s) %12v   warm %3d run(s) %12v\n",
			name, t.ColdRuns, time.Duration(t.ColdNs).Round(time.Microsecond),
			t.WarmRuns, time.Duration(t.WarmNs).Round(time.Microsecond))
	}
	stage("parse", st.Parse)
	stage("dataplane", st.DataPlane)
	stage("graph", st.Graph)
	stage("analysis", st.Analysis)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "batfish: "+format+"\n", args...)
	os.Exit(exitError)
}

// containmentExit prints the diagnostics summary for a degraded snapshot
// and picks the exit code: 3 when the run was cancelled, 4 when results
// are otherwise partial (quarantine, budget, recovered panic), 0 clean.
func containmentExit(snap *batfish.Snapshot) int {
	ds := snap.Diags()
	if len(ds) == 0 {
		return exitOK
	}
	fmt.Fprintln(os.Stderr, "containment: "+batfish.DiagSummary(ds))
	if qn := snap.Quarantined(); len(qn) > 0 {
		fmt.Fprintf(os.Stderr, "quarantined devices: %s\n", strings.Join(qn, ", "))
	}
	if snap.Cancelled() {
		return exitCancelled
	}
	return exitDegraded
}

func runQuestion(ctx context.Context, dir, q, node, iface, src, dst string, dport int) int {
	snap, err := batfish.LoadDirContext(ctx, dir)
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range snap.Warnings {
		fmt.Fprintf(os.Stderr, "warning: %v\n", w)
	}
	printFindings := func(fs []batfish.Finding) {
		if len(fs) == 0 {
			fmt.Println("no findings")
		}
		for _, f := range fs {
			fmt.Println(f)
		}
	}
	switch q {
	case "refs":
		printFindings(snap.UndefinedReferences())
	case "unused":
		printFindings(snap.UnusedStructures())
	case "dupips":
		printFindings(snap.DuplicateIPs())
	case "ntp":
		printFindings(snap.NTPConsistency())
	case "bgp":
		printFindings(snap.BGPSessionStatus())
	case "routes":
		if node == "" {
			fatalf("-node required for routes")
		}
		for _, rt := range snap.Routes(node) {
			fmt.Println(rt)
		}
	case "reachability":
		fmt.Print(server.RenderFlows(snap.Reachability(batfish.ReachabilityParams{})))
	case "loops":
		loops := snap.DetectLoops()
		if len(loops) == 0 {
			fmt.Println("no forwarding loops")
		}
		for _, l := range loops {
			fmt.Printf("loop from %s/%s, example %v\n", l.Source.Device, l.Source.Iface, l.Example)
		}
	case "multipath":
		vs := snap.MultipathConsistency()
		if len(vs) == 0 {
			fmt.Println("multipath consistent")
		}
		for _, v := range vs {
			fmt.Printf("violation at %s/%s, example %v\n", v.Source.Device, v.Source.Iface, v.Example)
		}
	case "traceroute":
		if node == "" || dst == "" {
			fatalf("-node and -dst required for traceroute")
		}
		p := hdr.Packet{Protocol: hdr.ProtoTCP, DstPort: uint16(dport), SrcPort: 40000}
		var err error
		if p.DstIP, err = ip4.ParseAddr(dst); err != nil {
			fatalf("bad -dst: %v", err)
		}
		if src != "" {
			if p.SrcIP, err = ip4.ParseAddr(src); err != nil {
				fatalf("bad -src: %v", err)
			}
		}
		for _, t := range snap.Traceroute().Run(node, config.DefaultVRF, iface, p) {
			fmt.Println(t)
		}
	default:
		fatalf("unknown question %q", q)
	}
	return containmentExit(snap)
}

// Sweep-mode exit codes: the count of violating scenarios doubles as the
// exit code so shell gates can test "any violating failure" directly. The
// count is capped below the sentinel codes for cancellation/degradation.
const (
	sweepExitMaxViolations = 100
	sweepExitCancelled     = 101
	sweepExitDegraded      = 102
)

// parseSweepSpec translates the -sweep flag family into a sweep.Spec.
func parseSweepSpec(k int, fail string, workers int, dsts, srcs string) (sweep.Spec, error) {
	spec := sweep.Spec{K: k, Workers: workers}
	for _, kind := range strings.Split(fail, ",") {
		switch strings.TrimSpace(kind) {
		case "links":
			spec.Links = true
		case "nodes":
			spec.Nodes = true
		case "sessions":
			spec.Sessions = true
		case "":
		default:
			return spec, fmt.Errorf("unknown -fail kind %q (want links, nodes, or sessions)", kind)
		}
	}
	if dsts != "" {
		for _, c := range strings.Split(dsts, ",") {
			p, err := ip4.ParsePrefix(strings.TrimSpace(c))
			if err != nil {
				return spec, fmt.Errorf("bad -sweep-dst %q: %v", c, err)
			}
			spec.DstIPs = append(spec.DstIPs, p)
		}
	}
	if srcs != "" {
		for _, s := range strings.Split(srcs, ",") {
			dev, ifc, _ := strings.Cut(strings.TrimSpace(s), "/")
			if dev == "" {
				return spec, fmt.Errorf("bad -sweep-src entry %q", s)
			}
			spec.Sources = append(spec.Sources, reach.SourceLoc{Device: dev, Iface: ifc})
		}
	}
	return spec, nil
}

// runSweep enumerates, prunes, and executes the failure sweep, streaming
// violating scenarios as their classes complete and printing a summary.
func runSweep(ctx context.Context, dir string, k int, fail string, workers int, dsts, srcs string) int {
	spec, err := parseSweepSpec(k, fail, workers, dsts, srcs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batfish: %v\n", err)
		return exitUsage
	}
	snap, err := batfish.LoadDirContext(ctx, dir)
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range snap.Warnings {
		fmt.Fprintf(os.Stderr, "warning: %v\n", w)
	}

	t0 := time.Now()
	plan, err := sweep.NewPlan(snap, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batfish: %v\n", err)
		return exitUsage
	}
	fmt.Printf("sweep: %d scenarios in %d equivalence classes\n",
		plan.Enumerated(), plan.Classes())

	res, execErr := plan.Execute(ctx, func(v sweep.Verdict) {
		if v.Violations == 0 && !v.Degraded {
			return
		}
		status := fmt.Sprintf("%d violation(s)", v.Violations)
		if v.Degraded {
			status += " [degraded]"
		}
		mark := "pruned, stamped from class " + v.Class
		if v.Executed {
			mark = "executed"
		}
		fmt.Printf("  %-40s %s (%s)\n", v.Scenario, status, mark)
	})
	if res != nil {
		fmt.Printf("sweep: enumerated=%d classes=%d executed=%d pruned=%d violations=%d wall=%v\n",
			res.Enumerated, res.Classes, res.Executed, res.Pruned, res.Violations,
			time.Since(t0).Round(time.Millisecond))
	}
	switch {
	case execErr != nil:
		fmt.Fprintf(os.Stderr, "batfish: sweep cancelled: %v\n", execErr)
		return sweepExitCancelled
	case res.Violations > 0:
		return min(res.Violations, sweepExitMaxViolations)
	case res.Degraded:
		return sweepExitDegraded
	default:
		return exitOK
	}
}

func printTable1() {
	fmt.Printf("%-7s %-12s %8s %9s %10s %8s  %s\n",
		"Network", "Type", "Devices", "LoC", "Routes", "Dialects", "Protocols")
	for _, sp := range netgen.Catalog() {
		snap := sp.Gen()
		net, _ := snap.Parse()
		dialects := map[netgen.Dialect]bool{}
		for _, d := range snap.Devices {
			dialects[d.Dialect] = true
		}
		ds := []string{}
		if dialects[netgen.IOS] {
			ds = append(ds, "ios")
		}
		if dialects[netgen.Junos] {
			ds = append(ds, "junos")
		}
		protos := protoSummary(net)
		// Route counts require the data plane; keep Table 1 cheap by
		// reporting them only for the smaller networks.
		routes := "-"
		if sp.ExpectDevices <= 300 {
			dp := dataplane.Run(net, dataplane.Options{Parallelism: runtime.NumCPU()})
			routes = fmt.Sprint(totalRoutes(dp))
		}
		fmt.Printf("%-7s %-12s %8d %9d %10s %8s  %s\n",
			sp.Name, sp.Type, len(snap.Devices), snap.LoC(), routes,
			strings.Join(ds, "+"), protos)
	}
}

func protoSummary(net *config.Network) string {
	has := map[string]bool{}
	for _, d := range net.Devices {
		for _, v := range d.VRFs {
			if v.OSPF != nil {
				has["ospf"] = true
			}
			if v.BGP != nil {
				has["bgp"] = true
			}
			if len(v.StaticRoutes) > 0 {
				has["static"] = true
			}
		}
		if len(d.ACLs) > 0 {
			has["acl"] = true
		}
	}
	var out []string
	for _, p := range []string{"bgp", "ospf", "static", "acl"} {
		if has[p] {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

func totalRoutes(dp *dataplane.Result) int {
	n := 0
	for _, ns := range dp.Nodes {
		for _, vs := range ns.VRFs {
			n += vs.Main.Size()
		}
	}
	return n
}

func runTable2(nets int) {
	specs := netgen.Catalog()
	if nets < len(specs) {
		specs = specs[:nets]
	}
	fmt.Printf("%-7s %8s %10s %12s %12s %12s\n",
		"Network", "Devices", "Routes", "Parse", "DP gen", "Dest reach")
	for _, sp := range specs {
		snap := sp.Gen()

		t0 := time.Now()
		net, _ := snap.Parse()
		parse := time.Since(t0)

		t1 := time.Now()
		dp := dataplane.Run(net, dataplane.Options{Parallelism: runtime.NumCPU()})
		dpGen := time.Since(t1)
		if !dp.Converged {
			fmt.Fprintf(os.Stderr, "%s: did not converge: %v\n", sp.Name, dp.Warnings)
		}

		t2 := time.Now()
		an := reachFor(dp)
		dst := net.DeviceNames()[len(net.DeviceNames())/2]
		res := an.DestReachability(context.Background(), dst, bdd.True)
		reachDur := time.Since(t2)
		_ = res

		fmt.Printf("%-7s %8d %10d %12v %12v %12v\n",
			sp.Name, len(net.Devices), totalRoutes(dp), parse.Round(time.Millisecond),
			dpGen.Round(time.Millisecond), reachDur.Round(time.Millisecond))
	}
}

func reachFor(dp *dataplane.Result) *reach.Analysis {
	return reach.New(fwdgraph.New(dp))
}

func demoBadGadget() {
	fmt.Println("BGP bad gadget: 3-router ring, each preferring its successor's path")
	fmt.Println("(no stable solution exists; the simulator must report this, §4.1.2)")
	fmt.Println()
	r := dataplane.Run(testnet.BadGadget(), dataplane.Options{MaxIterations: 200})
	fmt.Printf("converged=%v oscillation=%v iterations=%d sessions=%d\n",
		r.Converged, r.Oscillation, r.BGPIterations, len(r.Sessions))
	for _, w := range r.Warnings {
		fmt.Println("  " + w)
	}
}

func demoFigure1() {
	fmt.Println("Figure 1b: two border routers + two external advertisers of 10.0.0.0/8")
	fmt.Println()
	lock := dataplane.Run(testnet.Figure1b(), dataplane.Options{
		Schedule: dataplane.ScheduleLockstep, MaxIterations: 50})
	fmt.Printf("lockstep schedule:  converged=%v oscillation=%v iterations=%d\n",
		lock.Converged, lock.Oscillation, lock.BGPIterations)
	for _, w := range lock.Warnings {
		fmt.Println("  " + w)
	}
	col := dataplane.Run(testnet.Figure1b(), dataplane.Options{})
	fmt.Printf("colored schedule:   converged=%v oscillation=%v iterations=%d\n",
		col.Converged, col.Oscillation, col.BGPIterations)
	for _, name := range []string{"border1", "border2"} {
		for _, rt := range col.Nodes[name].DefaultVRF().Main.AllBest() {
			if rt.Prefix == ip4.MustParsePrefix("10.0.0.0/8") {
				fmt.Printf("  %s: %v\n", name, rt)
			}
		}
	}
}
