// Command perfbench is gobatfish's end-to-end benchmark. One run measures
// one workload in a fresh process:
//
//	perfbench --workload verify-cold --seed 1 --seconds 20 --trace 0
//
// It builds the workload's inputs from the seed, sets up (several times,
// reporting the median CPU time as setup_s), checks the starting state
// against independent references, then drives closed-loop clients for
// --seconds and checks every answer. The bounded time metrics are CPU
// times, which the kernel keeps free of the time the hypervisor gives to
// other guests; wall-clock latencies are printed on stderr. With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, computed from spans recorded around every
// call the benchmark makes into a layer (see trace.go). Human-readable
// tables go to stderr. The workloads and the layers each one crosses are
// described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every network so the smoke test runs in seconds.
	tiny bool
	// outDir receives the trace file and the service workload's disk cache.
	outDir string
	// minOps is the fewest ops each client runs regardless of --seconds.
	minOps int
}

// workload is one benchmark workload. setup runs several times (see run);
// the state of the last repetition is the one measured.
type workload interface {
	setup() error
	// reference checks the set-up state against independent references;
	// its time is not part of any metric.
	reference() error
	clients() int
	// op runs client c's i-th operation with spans under root (nil when
	// untraced) and returns the check of its answer, which runs untimed.
	op(root *span, c, i int) (kind string, check func() error, err error)
	// finish runs post-measurement checks and releases resources.
	finish() error
	// layers reports the counter-based per-layer metrics of the measured
	// phase (names from perLayer); ops is the number of ops it ran.
	layers(ops int) map[string]float64
}

// Set-up repeats at least minSetupReps times, and more (up to
// maxSetupReps) while the repetitions so far took under setupBudget, so a
// cheap set-up still yields a steady median.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// workloads lists the workload names; BENCHMARK.json lists the same.
var workloads = []string{"verify-cold", "change-loop", "service-mix", "failure-sweep"}

// newWorkload maps a workload name to its implementation.
func newWorkload(cfg runConfig, tr *tracer) (workload, error) {
	switch cfg.workload {
	case "verify-cold":
		return &verifyCold{cfg: cfg}, nil
	case "change-loop":
		return &changeLoop{cfg: cfg}, nil
	case "service-mix":
		return &serviceMix{cfg: cfg, tr: tr}, nil
	case "failure-sweep":
		return &failureSweep{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want verify-cold, change-loop, service-mix or failure-sweep)", cfg.workload)
}

// metric names and units; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"ok_rate", "ratio"},
	{"rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"},
	{"parse.devices_per_s", "1/s"},
	{"pipeline.hit_ratio", "ratio"},
	{"pipeline.evictions", "count/op"},
	{"diskcache.hit_ratio", "ratio"},
	{"diskcache.puts", "count/op"},
	{"diskcache.put_errors", "count"},
	{"dataplane.ms", "ms"},
	{"dataplane.alloc_mb", "MB"},
	{"dataplane.bgp_iterations", "count"},
	{"routing.intern_hit_ratio", "ratio"},
	{"fwdgraph.ms", "ms"},
	{"fwdgraph.alloc_mb", "MB"},
	{"fwdgraph.edges", "count"},
	{"bdd.nodes", "count/op"},
	{"bdd.ops", "count/op"},
	{"reach.ms", "ms"},
	{"reach.alloc_mb", "MB"},
	{"reach.flows", "count/op"},
	{"core.compare_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.shed", "count"},
	{"server.retries", "count"},
	{"server.peak_queued", "count"},
	{"sweep.plan_ms", "ms"},
	{"sweep.exec_ms", "ms"},
	{"sweep.ms_per_class", "ms"},
	{"sweep.prune_ratio", "ratio"},
	{"sweep.executed", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

// opResult is one finished op.
type opResult struct {
	client int
	kind   string
	d      time.Duration
	traced bool
	err    error
}

// runtimeStats reads the runtime counters the per-layer metrics use.
type runtimeStats struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// rssSampler records the resident set every rssPeriod while the clients
// run. Its median is the measured phase's typical footprint: unlike the
// peak, it does not hinge on whether two allocation bursts happened to meet
// one garbage-collection cycle.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const rssPeriod = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// median stops the sampler and returns the median sample.
func (r *rssSampler) median() float64 {
	close(r.stop)
	<-r.done
	return percentile(r.samples, 0.5)
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// hostCPU reads the machine-wide CPU time counters from /proc/stat: the
// total and its steal part, the time the hypervisor ran other guests while
// this one had work. On a shared host the steal share explains most of the
// run-to-run drift in op times.
func hostCPU() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already part of user time.
	for i, s := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// restarts the kernel's peak-RSS mark, so that peakRSSMB covers the
// measured phase alone and not the set-up and reference checks before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Kernels without the reset keep the lifetime peak, which peakRSSMB
	// then reports.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since resetPeakRSS (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the CPU time the process has used, all threads, user and
// system. The kernel accounts it without steal time, so unlike wall time it
// does not grow when the hypervisor runs other guests.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuMeter sums the process's CPU time over the intervals in which at least
// one op is running, so the untimed answer checks between one client's ops
// are left out.
type cpuMeter struct {
	mu       sync.Mutex
	inflight int
	start    float64
	total    float64
}

func (m *cpuMeter) enter() {
	m.mu.Lock()
	if m.inflight == 0 {
		m.start = cpuSeconds()
	}
	m.inflight++
	m.mu.Unlock()
}

func (m *cpuMeter) leave() {
	m.mu.Lock()
	m.inflight--
	if m.inflight == 0 {
		m.total += cpuSeconds() - m.start
	}
	m.mu.Unlock()
}

// percentile is the nearest-rank percentile of xs (p in [0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tail returns the highest of p99/p90 that has at least ten samples
// beyond it, or ok=false when even p90 has fewer.
func tail(xs []float64) (name string, v float64, ok bool) {
	for _, p := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-p.p) >= 10 {
			return p.name, percentile(xs, p.p), true
		}
	}
	return "", 0, false
}

// measure drives the workload's clients until the deadline; each client
// runs at least cfg.minOps ops. With tracing on, odd ops are traced and
// even ops untraced, so both halves see the same conditions. cpu is the
// process CPU time spent while ops ran.
func measure(w workload, cfg runConfig, tr *tracer) (results []opResult, wall time.Duration, cpu float64) {
	var meter cpuMeter
	n := w.clients()
	per := make([][]opResult, n)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < cfg.minOps || time.Now().Before(deadline); i++ {
				per[c] = append(per[c], runOp(w, tr, &meter, cfg, c, i))
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, rs := range per {
		results = append(results, rs...)
	}
	return results, wall, meter.total
}

// runOp times one op (not its answer check) and turns panics into
// failures.
func runOp(w workload, tr *tracer, meter *cpuMeter, cfg runConfig, c, i int) (r opResult) {
	r.client, r.traced = c, cfg.trace && i%2 == 1
	var root *span
	if r.traced {
		root = tr.op(fmt.Sprintf("%s/%d/%d", cfg.workload, c, i))
	}
	defer func() {
		if v := recover(); v != nil {
			root.end()
			r.err = fmt.Errorf("op %d/%d panicked: %v", c, i, v)
		}
	}()
	start := time.Now()
	kind, check, err := meteredOp(w, meter, root, c, i)
	r.d = time.Since(start)
	root.end()
	r.kind = kind
	if err == nil && check != nil {
		err = check()
	}
	r.err = err
	return r
}

// meteredOp runs one op with the CPU meter on, also when the op panics.
func meteredOp(w workload, meter *cpuMeter, root *span, c, i int) (string, func() error, error) {
	meter.enter()
	defer meter.leave()
	return w.op(root, c, i)
}

// throughput sums each client's completion rate over its busy time, so the
// untimed answer checks between ops do not count.
func throughput(results []opResult, clients int) float64 {
	busy := make([]time.Duration, clients)
	n := make([]int, clients)
	for _, r := range results {
		busy[r.client] += r.d
		n[r.client]++
	}
	total := 0.0
	for c := range busy {
		if busy[c] > 0 {
			total += float64(n[c]) / busy[c].Seconds()
		}
	}
	return total
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "verify-cold, change-loop, service-mix or failure-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (inputs, request order, edited devices, monitored flow)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured duration")
	flag.IntVar(&traceFlag, "trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the trace file and scratch state")
	flag.Parse()
	cfg.trace = traceFlag == 1
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line. An error
// means the run could not produce a result at all (bad arguments, a set-up
// or reference check that failed).
func run(cfg runConfig, log io.Writer) (*result, error) {
	if cfg.minOps == 0 {
		cfg.minOps = 1
		if cfg.trace {
			cfg.minOps = 2
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	w, err := newWorkload(cfg, tr)
	if err != nil {
		return nil, err
	}
	// setups holds each repetition's CPU time, setupWalls its wall time.
	var setups, setupWalls []float64
	var setupTotal time.Duration
	for r := 0; r < minSetupReps || (setupTotal < setupBudget && r < maxSetupReps); r++ {
		// Each repetition starts on a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, cpuSeconds()-c0)
		d := time.Since(t0)
		setupTotal += d
		setupWalls = append(setupWalls, d.Seconds())
	}
	if err := w.reference(); err != nil {
		w.finish()
		return nil, fmt.Errorf("%s reference check: %w", cfg.workload, err)
	}

	resetPeakRSS()
	rss := startRSSSampler()
	rt0 := readRuntime()
	cpu0, steal0 := hostCPU()
	results, wall, opCPU := measure(w, cfg, tr)
	cpu1, steal1 := hostCPU()
	rt1 := readRuntime()
	rssMedian := rss.median()
	finishErr := w.finish()
	if finishErr != nil {
		fmt.Fprintf(log, "%s: post-run check failed: %v\n", cfg.workload, finishErr)
	}

	failed := 0
	var lat, latTraced []float64
	byKind := make(map[string][]float64)
	for _, r := range results {
		if r.err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(log, "%s: %v\n", cfg.workload, r.err)
			}
			continue
		}
		ms := float64(r.d.Nanoseconds()) / 1e6
		if r.traced {
			latTraced = append(latTraced, ms)
			continue
		}
		lat = append(lat, ms)
		byKind[r.kind] = append(byKind[r.kind], ms)
	}

	res := &result{Correct: failed == 0 && finishErr == nil, Attempted: len(results), Failed: failed,
		Metrics: make(map[string]metricValue)}
	if finishErr != nil && failed == 0 {
		res.Failed = 1
	}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":   percentile(setups, 0.5),
			"op_cpu_ms": opCPU * 1e3 / float64(len(results)),
			"ok_rate":   1 - float64(res.Failed)/float64(len(results)),
			"rss_mb":    rssMedian,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		report(log, cfg, res, setupWalls, lat, byKind, len(results), wall)
		fmt.Fprintf(log, "  %-22s %14.4f 1/s\n", "ops_per_s", throughput(results, w.clients()))
		fmt.Fprintf(log, "  %-22s %14.4f MB\n", "peak_rss_mb", peakRSSMB())
		fmt.Fprintf(log, "  %-22s %14.4f ratio\n", "host_steal_frac", safeDiv(steal1-steal0, cpu1-cpu0))
		return res, nil
	}

	sum := tr.summarize()
	vals := w.layers(len(results))
	fillSpanMetrics(vals, sum)
	vals["runtime.gc_cpu_frac"] = safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	vals["runtime.alloc_mb_per_op"] = float64(rt1.allocs-rt0.allocs) / 1e6 / float64(len(results))
	vals["trace.overhead"] = safeDiv(percentile(latTraced, 0.5), percentile(lat, 0.5))
	vals["trace.coverage"] = safeDiv(float64(sum.coverNs), float64(sum.opNs))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	fmt.Fprintf(log, "%s seed=%d traced ops=%d untraced ops=%d failed=%d\n",
		cfg.workload, cfg.seed, len(latTraced), len(lat), res.Failed)
	sum.printLayers(log)
	for _, m := range perLayer {
		fmt.Fprintf(log, "%-26s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return res, nil
}

// spanLayers maps the per-layer time metrics to the span layer they sum.
var spanLayers = map[string]string{
	"parse.ms":            "parse",
	"dataplane.ms":        "dataplane",
	"fwdgraph.ms":         "fwdgraph",
	"reach.ms":            "reach",
	"core.compare_ms":     "core.compare",
	"server.handler_ms":   "server.handler",
	"server.transport_ms": "server.transport",
	"sweep.plan_ms":       "sweep.plan",
	"sweep.exec_ms":       "sweep.exec",
}

// fillSpanMetrics derives the span-based per-layer metrics: self time and
// allocation per traced op, and the counters the workloads attached to
// their spans. Layers a workload does not cross report 0.
func fillSpanMetrics(vals map[string]float64, sum summary) {
	get := func(layer string) *layerStat {
		if ls := sum.layers[layer]; ls != nil {
			return ls
		}
		return &layerStat{counts: map[string]int64{}}
	}
	for name, layer := range spanLayers {
		vals[name] = perOp(float64(get(layer).selfNs)/1e6, sum.ops)
	}
	parse := get("parse")
	vals["parse.devices_per_s"] = safeDiv(float64(parse.counts["devices"]), float64(parse.selfNs)/1e9)
	for _, l := range []string{"dataplane", "fwdgraph", "reach"} {
		vals[l+".alloc_mb"] = perOp(float64(get(l).alloc)/1e6, sum.ops)
	}
	dp := get("dataplane")
	vals["dataplane.bgp_iterations"] = safeDiv(float64(dp.counts["bgp_iterations"]), float64(dp.spans))
	vals["routing.intern_hit_ratio"] = safeDiv(float64(dp.counts["intern_hits"]), float64(dp.counts["intern_lookups"]))
	fg := get("fwdgraph")
	vals["fwdgraph.edges"] = safeDiv(float64(fg.counts["edges"]), float64(fg.spans))
	vals["reach.flows"] = perOp(float64(get("reach").counts["flows"]+get("core.compare").counts["flows"]), sum.ops)
	op := get("op")
	vals["bdd.nodes"] = perOp(float64(op.counts["bdd_nodes"]), sum.ops)
	vals["bdd.ops"] = perOp(float64(op.counts["bdd_ops"]), sum.ops)
	ex := get("sweep.exec")
	vals["sweep.ms_per_class"] = safeDiv(float64(ex.selfNs)/1e6, float64(ex.counts["executed"]))
}

// report prints the end-to-end table to stderr: the contract metrics, the
// median wall time of set-up and of an op, then per op kind its wall-clock
// median and the highest percentile with at least ten samples beyond it,
// each with its sample count.
func report(log io.Writer, cfg runConfig, res *result, setupWalls, lat []float64, byKind map[string][]float64, attempted int, wall time.Duration) {
	fmt.Fprintf(log, "%s seed=%d ops=%d failed=%d wall=%.2fs setups=%d\n",
		cfg.workload, cfg.seed, attempted, res.Failed, wall.Seconds(), len(setupWalls))
	for _, m := range endToEnd {
		fmt.Fprintf(log, "  %-22s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(log, "  %-22s %14.4f ratio\n", "error_rate", 1-res.Metrics["ok_rate"].Value)
	fmt.Fprintf(log, "  %-22s %14.4f s\n", "setup_wall_s", percentile(setupWalls, 0.5))
	fmt.Fprintf(log, "  %-22s %14.4f ms (n=%d)\n", "op_p50_ms", percentile(lat, 0.5), len(lat))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		xs := byKind[k]
		fmt.Fprintf(log, "  %-22s %14.4f ms (n=%d)\n", k+"_p50_ms", percentile(xs, 0.5), len(xs))
		if name, v, ok := tail(xs); ok {
			fmt.Fprintf(log, "  %-22s %14.4f ms (n=%d)\n", k+"_"+name+"_ms", v, len(xs))
		}
		fmt.Fprintf(log, "  %-22s %14.4f 1/s\n", k+"_per_s", float64(len(xs))/wall.Seconds())
		if len(xs) <= 20 {
			fmt.Fprintf(log, "  %s op times (ms): %.1f\n", k, xs)
		}
	}
}
