// Command benchjson converts `go test -bench` output into a dated JSON
// file, giving the repository a perf trajectory: each PR can run the
// benchmarks and commit a BENCH_<date>.json snapshot that later PRs diff
// against.
//
// Usage:
//
//	go test -bench . -benchmem | go run ./cmd/benchjson [-o DIR] [-diff]
//	go run ./cmd/benchjson -check [FILE]
//
// The emitter parses the standard benchmark line format — name, run
// count, ns/op, optional B/op and allocs/op, and any custom metrics
// (e.g. the simulator's iterations/op or speedup) — plus the goos/
// goarch/pkg/cpu preamble.
//
// With -diff the emitter also compares the fresh snapshot against the
// most recent prior BENCH_*.json in the output directory and prints
// per-benchmark deltas (ns/op, allocations, and custom metrics shared by
// both snapshots), so a PR's perf effect is visible in its log without
// opening two JSON files.
//
// -check is the regression gate (`make bench-check`): it loads a
// snapshot — the named FILE, or the newest BENCH_*.json under -o — and
// enforces the committed perf floors:
//
//   - the dev-204 parallel benchmark's sched-speedup at 8 workers must be
//     at least -speedup-floor (the ISSUE 6 exit bar, default 4.0);
//   - interned route churn must not be slower than non-interned
//     (BenchmarkIntern/interned ns/op ≤ BenchmarkIntern/not-interned);
//   - when a sweep snapshot is present, the failure sweep must prune at
//     least half of the enumerated scenarios (sweep-prune-ratio ≥ 0.5)
//     and beat naive cold per-scenario re-analysis by at least 5x
//     (sweep-speedup ≥ 5), the ISSUE 7 exit bars;
//   - when a cluster snapshot is present, member-failure eviction p99
//     must land inside the detector's budget (cluster-failover-p99-ms ≤
//     cluster-failover-budget-ms) and a forwarded question must cost at
//     most 2x a local one (cluster-forward-overhead ≤ 2.0), the ISSUE 8
//     exit bars;
//   - when the coordinator-failover metrics are present, promotion p99
//     must land inside twice the member-eviction budget
//     (cluster-coord-failover-p99-ms ≤ cluster-coord-failover-budget-ms)
//     and an heir rehydrating a dead owner's snapshot from the shared
//     cache directory must find at least 90% of its artifacts there
//     (cluster-heir-warm-hit-rate ≥ 0.9).
//
// Violations exit nonzero with one line per failed floor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	BPerOp  float64            `json:"bytes_per_op,omitempty"`
	Allocs  float64            `json:"allocs_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the emitted document. Pipeline aggregates the staged-pipeline
// counters that caching-aware benchmarks report as custom metrics —
// artifact-cache hit/miss/eviction counts (cache-*), per-stage cold vs
// warm wall times (stage-*), and routing intern-pool counters (intern-*)
// — so trajectory diffs can track cache effectiveness without digging
// through per-benchmark metric maps. Server does the same for the
// analysis service's metrics (server-*): request latency percentiles and
// the warm-restart speedup the persistent cache buys. Sweep aggregates
// the failure-sweep engine's metrics (sweep-*): scenarios enumerated,
// equivalence classes after pruning, scenarios executed, wall time, and
// violations found. Cluster aggregates the clustered service's metrics
// (cluster-*): member-failure eviction latency percentiles against the
// detector's budget, and the cost a forwarding hop adds to a question.
type File struct {
	Date     string             `json:"date"`
	GOOS     string             `json:"goos,omitempty"`
	GOARCH   string             `json:"goarch,omitempty"`
	Pkg      string             `json:"pkg,omitempty"`
	CPU      string             `json:"cpu,omitempty"`
	Results  []Result           `json:"results"`
	Pipeline map[string]float64 `json:"pipeline,omitempty"`
	Server   map[string]float64 `json:"server,omitempty"`
	Sweep    map[string]float64 `json:"sweep,omitempty"`
	Cluster  map[string]float64 `json:"cluster,omitempty"`
}

// summarize collects metrics matching any of the prefixes across all
// results, summing when more than one benchmark reports the same counter.
func summarize(results []Result, prefixes ...string) map[string]float64 {
	var sum map[string]float64
	for _, r := range results {
		for name, v := range r.Metrics {
			matched := false
			for _, p := range prefixes {
				if strings.HasPrefix(name, p) {
					matched = true
					break
				}
			}
			if !matched {
				continue
			}
			if sum == nil {
				sum = make(map[string]float64)
			}
			sum[name] += v
		}
	}
	return sum
}

func main() {
	outDir := flag.String("o", ".", "directory for BENCH_<date>.json")
	diff := flag.Bool("diff", false, "after writing, print deltas vs the previous BENCH_*.json in the output directory")
	check := flag.Bool("check", false, "enforce perf floors on a snapshot (FILE arg, or newest BENCH_*.json under -o) instead of reading stdin")
	speedupFloor := flag.Float64("speedup-floor", 4.0, "minimum sched-speedup for the dev-204 benchmark at 8 workers (with -check)")
	flag.Parse()

	if *check {
		os.Exit(runCheck(*outDir, flag.Arg(0), *speedupFloor))
	}

	doc := File{Date: time.Now().UTC().Format("2006-01-02")}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(doc.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	doc.Pipeline = summarize(doc.Results, "cache-", "stage-", "intern-")
	doc.Server = summarize(doc.Results, "server-")
	doc.Sweep = summarize(doc.Results, "sweep-")
	doc.Cluster = summarize(doc.Results, "cluster-")

	path := filepath.Join(*outDir, "BENCH_"+doc.Date+".json")
	prev := ""
	if *diff {
		// Resolve the baseline before writing, so a same-day rerun diffs
		// against the previous day's snapshot rather than itself.
		prev = latestSnapshot(*outDir, path)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(doc.Results))

	if *diff {
		if prev == "" {
			fmt.Println("diff: no previous BENCH_*.json to compare against")
			return
		}
		base, err := loadSnapshot(prev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: diff:", err)
			os.Exit(1)
		}
		printDiff(os.Stdout, base, &doc, filepath.Base(prev))
	}
}

// latestSnapshot returns the lexically greatest BENCH_*.json in dir other
// than exclude. Dates are zero-padded ISO, so lexical order is date order.
func latestSnapshot(dir, exclude string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) != filepath.Clean(exclude) {
			return matches[i]
		}
	}
	return ""
}

func loadSnapshot(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// printDiff reports per-benchmark deltas for every name present in both
// snapshots, plus the names that appeared or disappeared. Deltas are
// signed percentages for ns/op (negative = faster) and raw old→new for
// custom metrics, which are not uniformly better in one direction.
func printDiff(w *os.File, base, cur *File, baseName string) {
	old := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	fmt.Fprintf(w, "diff vs %s:\n", baseName)
	var added []string
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Name] = true
		o, ok := old[r.Name]
		if !ok {
			added = append(added, r.Name)
			continue
		}
		fmt.Fprintf(w, "  %-56s %12.0f -> %-12.0f ns/op  %+6.1f%%", r.Name, o.NsPerOp, r.NsPerOp, pct(o.NsPerOp, r.NsPerOp))
		if o.Allocs > 0 || r.Allocs > 0 {
			fmt.Fprintf(w, "  allocs %+6.1f%%", pct(o.Allocs, r.Allocs))
		}
		fmt.Fprintln(w)
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			if _, ok := o.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "      %-52s %12.3g -> %.3g\n", name, o.Metrics[name], r.Metrics[name])
		}
	}
	for _, r := range base.Results {
		if !seen[r.Name] {
			fmt.Fprintf(w, "  %-56s removed\n", r.Name)
		}
	}
	for _, name := range added {
		fmt.Fprintf(w, "  %-56s new\n", name)
	}
}

func pct(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (cur - old) / old * 100
}

// runCheck enforces the committed perf floors on a snapshot and returns
// the process exit code. Benchmark names are matched by substring so the
// GOMAXPROCS suffix and device count stay out of the contract; the
// dev-204 fabric is located by the "/workers-8" leaf of the Parallelism
// benchmark, which only the full-size run emits.
func runCheck(dir, file string, speedupFloor float64) int {
	if file == "" {
		file = latestSnapshot(dir, "")
		if file == "" {
			fmt.Fprintln(os.Stderr, "benchjson: check: no BENCH_*.json found in", dir)
			return 1
		}
	}
	doc, err := loadSnapshot(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: check:", err)
		return 1
	}

	failures := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchjson: check: FAIL: "+format+"\n", args...)
		failures++
	}

	// Floor 1: parallel sched-speedup at 8 workers on the 204-device fabric.
	found := false
	for _, r := range doc.Results {
		if !strings.Contains(r.Name, "Parallelism") || !strings.Contains(r.Name, "/workers-8") {
			continue
		}
		found = true
		s, ok := r.Metrics["sched-speedup"]
		if !ok {
			fail("%s reports no sched-speedup metric", r.Name)
			continue
		}
		if s < speedupFloor {
			fail("%s sched-speedup %.2f below floor %.2f", r.Name, s, speedupFloor)
		} else {
			fmt.Printf("benchjson: check: ok: %s sched-speedup %.2f >= %.2f\n", r.Name, s, speedupFloor)
		}
	}
	if !found {
		fail("no Parallelism */workers-8 result in %s", file)
	}

	// Floor 2: interning must pay for itself per operation.
	var interned, notInterned *Result
	for i, r := range doc.Results {
		switch {
		case strings.Contains(r.Name, "Intern/not-interned"):
			notInterned = &doc.Results[i]
		case strings.Contains(r.Name, "Intern/interned"):
			interned = &doc.Results[i]
		}
	}
	switch {
	case interned == nil || notInterned == nil:
		fail("missing BenchmarkIntern results in %s (interned=%v, not-interned=%v)",
			file, interned != nil, notInterned != nil)
	case interned.NsPerOp > notInterned.NsPerOp:
		fail("interned %.0f ns/op slower than not-interned %.0f ns/op",
			interned.NsPerOp, notInterned.NsPerOp)
	default:
		fmt.Printf("benchjson: check: ok: interned %.0f ns/op <= not-interned %.0f ns/op\n",
			interned.NsPerOp, notInterned.NsPerOp)
	}

	// Floor 3: the failure sweep's pruning and speedup bars. Gated on the
	// summary's presence so snapshots predating the sweep engine still
	// pass; once a sweep snapshot is committed, regressions fail here.
	if doc.Sweep != nil {
		if pr, ok := doc.Sweep["sweep-prune-ratio"]; !ok {
			fail("sweep summary reports no sweep-prune-ratio metric")
		} else if pr < 0.5 {
			fail("sweep-prune-ratio %.2f below floor 0.50", pr)
		} else {
			fmt.Printf("benchjson: check: ok: sweep-prune-ratio %.2f >= 0.50\n", pr)
		}
		if sp, ok := doc.Sweep["sweep-speedup"]; !ok {
			fail("sweep summary reports no sweep-speedup metric")
		} else if sp < 5 {
			fail("sweep-speedup %.1f below floor 5.0", sp)
		} else {
			fmt.Printf("benchjson: check: ok: sweep-speedup %.1f >= 5.0\n", sp)
		}
	}

	// Floor 4: the clustered service's bars, gated like the sweep's on the
	// summary's presence. Failover p99 must land inside the detector's own
	// budget (emitted by the benchmark as cluster-failover-budget-ms:
	// suspicion window + heartbeat slack), and a forwarding hop must not
	// dominate question cost.
	if doc.Cluster != nil {
		p99, okP99 := doc.Cluster["cluster-failover-p99-ms"]
		budget, okBudget := doc.Cluster["cluster-failover-budget-ms"]
		switch {
		case !okP99 || !okBudget:
			fail("cluster summary missing failover metrics (p99=%v, budget=%v)", okP99, okBudget)
		case p99 > budget:
			fail("cluster-failover-p99-ms %.0f over budget %.0f", p99, budget)
		default:
			fmt.Printf("benchjson: check: ok: cluster-failover-p99-ms %.0f <= budget %.0f\n", p99, budget)
		}
		if ov, ok := doc.Cluster["cluster-forward-overhead"]; !ok {
			fail("cluster summary reports no cluster-forward-overhead metric")
		} else if ov > 2.0 {
			fail("cluster-forward-overhead %.2fx above ceiling 2.0x", ov)
		} else {
			fmt.Printf("benchjson: check: ok: cluster-forward-overhead %.2fx <= 2.0x\n", ov)
		}

		// Floor 5: coordinator failover and heir warmth, gated
		// on their metrics' presence so cluster snapshots predating
		// lease-based failover still pass. Promoting a new coordinator may
		// cost at most twice the member-eviction budget (the benchmark
		// emits the budget as cluster-coord-failover-budget-ms), and an
		// heir's first answer after the owner dies must take at least 90%
		// of the artifacts it needs from the shared cache directory.
		if cp99, ok := doc.Cluster["cluster-coord-failover-p99-ms"]; ok {
			cbudget, okBudget := doc.Cluster["cluster-coord-failover-budget-ms"]
			switch {
			case !okBudget:
				fail("cluster summary has coord-failover p99 but no budget")
			case cp99 > cbudget:
				fail("cluster-coord-failover-p99-ms %.0f over budget %.0f", cp99, cbudget)
			default:
				fmt.Printf("benchjson: check: ok: cluster-coord-failover-p99-ms %.0f <= budget %.0f\n", cp99, cbudget)
			}
		}
		if hr, ok := doc.Cluster["cluster-heir-warm-hit-rate"]; ok {
			if hr < 0.9 {
				fail("cluster-heir-warm-hit-rate %.2f below floor 0.90", hr)
			} else {
				fmt.Printf("benchjson: check: ok: cluster-heir-warm-hit-rate %.2f >= 0.90\n", hr)
			}
		}
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: check: %d floor violation(s) in %s\n", failures, file)
		return 1
	}
	fmt.Printf("benchjson: check: all floors hold in %s\n", file)
	return 0
}

// parseLine handles "BenchmarkName-8  10  123 ns/op  4 B/op  2 allocs/op
// 1.5 custom/op". Fields come in (value, unit) pairs after the run count.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.Allocs = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[strings.TrimSuffix(unit, "/op")] = v
		}
	}
	return r, true
}
