// Chaos suite for the failure-containment layer: each test injects one
// fault class (parser panic, truncated config, routing oscillation,
// budget exhaustion, deadline expiry) into a realistic snapshot and
// asserts the engine degrades — structured diagnostic naming stage and
// device, healthy devices still answering questions — instead of dying.
//
// The suite lives in package faults_test so it can drive the full stack
// (core, pipeline, dataplane) without an import cycle; the injector is
// process-global, so these tests must not run in parallel.
package faults_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/diag"
	"repro/internal/diskcache"
	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/testnet"
)

// iosConfig emits a minimal IOS-style device with one LAN interface.
func iosConfig(host, addr string) string {
	return "hostname " + host + "\n" +
		"interface Ethernet1\n" +
		" ip address " + addr + " 255.255.255.0\n" +
		"!\nend\n"
}

// TestChaosParserPanicQuarantine injects a panic into one device's parse
// and asserts the device is quarantined with a panic diagnostic while the
// rest of the snapshot still builds a data plane and answers questions.
func TestChaosParserPanicQuarantine(t *testing.T) {
	inj := faults.New().Enable("parse", "r2", faults.Rule{Kind: faults.Panic})
	defer faults.Activate(inj)()

	snap := core.LoadTextWith(pipeline.New(pipeline.Config{}), map[string]string{
		"r1": iosConfig("r1", "10.0.1.1"),
		"r2": iosConfig("r2", "10.0.2.1"),
		"r3": iosConfig("r3", "10.0.3.1"),
	})

	if hits := inj.Hits()["parse/r2"]; hits == 0 {
		t.Fatal("injected parse fault never fired")
	}
	if _, ok := snap.Net.Devices["r2"]; ok {
		t.Error("panicking device r2 should be excluded from the network")
	}
	if q := snap.Quarantined(); len(q) != 1 || q[0] != "r2" {
		t.Errorf("Quarantined() = %v, want [r2]", q)
	}
	ds := snap.Diags()
	var sawPanic, sawQuarantine bool
	for _, d := range ds {
		if d.Stage != diag.StageParse || d.Device != "r2" {
			continue
		}
		switch d.Kind {
		case diag.KindPanic:
			sawPanic = true
			if d.Stack == "" {
				t.Error("panic diagnostic is missing its stack")
			}
		case diag.KindQuarantine:
			sawQuarantine = true
		}
	}
	if !sawPanic || !sawQuarantine {
		t.Errorf("want parse/r2 panic + quarantine diagnostics, got %s", diag.Summary(ds))
	}
	if !snap.Degraded() {
		t.Error("snapshot with a quarantined device should report Degraded")
	}

	// Healthy devices remain queryable end to end.
	if rts := snap.Routes("r1"); len(rts) == 0 {
		t.Error("healthy device r1 has no routes after quarantine of r2")
	}
	if got := len(snap.Net.Devices); got != 2 {
		t.Errorf("want 2 healthy devices, got %d", got)
	}
}

// TestChaosTruncatedConfig models a half-written configuration file: a
// generated fabric config cut off mid-statement must still parse into a
// usable device (warnings, never a crash), honoring the paper's
// "always produce some answer" contract.
func TestChaosTruncatedConfig(t *testing.T) {
	fab := netgen.Fabric(netgen.FabricParams{
		Name: "tr", Spines: 1, Pods: 1, AggPerPod: 1, TorPerPod: 1, HostNetsPerTor: 1})
	texts := make(map[string]string, len(fab.Devices))
	for _, d := range fab.Devices {
		texts[d.Hostname] = d.Text
	}
	// Truncate the ToR's config in the middle of a line.
	tor := fab.Devices[len(fab.Devices)-1].Hostname
	texts[tor] = texts[tor][:2*len(texts[tor])/3]

	snap := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	if _, ok := snap.Net.Devices[tor]; !ok {
		t.Fatalf("truncated device %s should still produce a model", tor)
	}
	if got := len(snap.Net.Devices); got != len(fab.Devices) {
		t.Errorf("want all %d devices parsed, got %d", len(fab.Devices), got)
	}
	// The degraded fabric still runs the whole pipeline.
	dp := snap.DataPlane()
	if dp == nil || len(dp.Nodes) != len(fab.Devices) {
		t.Fatal("truncated snapshot failed to build a data plane")
	}
	snap.UndefinedReferences() // must not panic on the partial model
}

// TestChaosOscillationPartialResult covers the non-convergence path: the
// paper's Figure 1b network under the lockstep schedule oscillates, and
// the run must stop with Converged=false, a populated cycle report, a
// non-convergence diagnostic, and a usable partial data plane.
func TestChaosOscillationPartialResult(t *testing.T) {
	r := dataplane.RunContext(context.Background(), testnet.Figure1b(),
		dataplane.Options{Schedule: dataplane.ScheduleLockstep, MaxIterations: 100})
	if r.Converged {
		t.Fatal("lockstep on Figure 1b should not converge")
	}
	if !r.Oscillation || r.Cycle == nil {
		t.Fatalf("want a detected oscillation with cycle report; warnings: %v", r.Warnings)
	}
	if r.Cycle.Protocol == "" || r.Cycle.RepeatIteration <= r.Cycle.FirstIteration {
		t.Errorf("cycle report not populated: %+v", r.Cycle)
	}
	if !diag.Has(r.Diags, diag.KindNonConvergence) {
		t.Errorf("want a non-convergence diagnostic, got %s", diag.Summary(r.Diags))
	}
	// The partial result holds one state of the cycle and stays usable.
	for _, name := range []string{"border1", "border2", "ext1", "ext2"} {
		ns := r.Nodes[name]
		if ns == nil || ns.DefaultVRF() == nil || ns.DefaultVRF().Main == nil {
			t.Fatalf("partial result unusable: node %s has no RIB", name)
		}
	}
}

// TestChaosBudgetExhaustion sets a BDD node budget far below what the
// analysis needs and asserts the question aborts with a "Budget exceeded"
// diagnostic instead of growing without bound — and that non-symbolic
// questions on the same snapshot keep working.
func TestChaosBudgetExhaustion(t *testing.T) {
	fab := netgen.Fabric(netgen.FabricParams{
		Name: "bx", Spines: 2, Pods: 1, AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	snap := core.LoadGeneratedWith(pipeline.Disabled(), fab)
	snap.SetBDDNodeBudget(64)

	if vs := snap.MultipathConsistency(); len(vs) != 0 {
		t.Errorf("budget-tripped question should return no violations, got %d", len(vs))
	}
	ds := diag.Filter(snap.Diags(), diag.KindBudget)
	if len(ds) == 0 {
		t.Fatalf("want a budget diagnostic, got %s", diag.Summary(snap.Diags()))
	}
	if !strings.Contains(ds[0].Message, "Budget exceeded") {
		t.Errorf("budget diagnostic message = %q, want it to say Budget exceeded", ds[0].Message)
	}
	if ds[0].Stage != diag.StageQuestion {
		t.Errorf("budget trip attributed to stage %s, want %s", ds[0].Stage, diag.StageQuestion)
	}
	// Concrete-domain questions are not budget-bound and still answer.
	if len(snap.BGPSessionStatus()) == 0 {
		t.Error("non-symbolic questions should survive a BDD budget trip")
	}
}

// TestCancelFabricDeadline is the acceptance check for cancellation
// promptness: a 204-device fabric run under a short deadline — slowed
// further by injected per-device sleeps so the deadline always lands
// mid-simulation — must return within 1s of the deadline, report
// cancellation, and leak no goroutines.
func TestCancelFabricDeadline(t *testing.T) {
	inj := faults.New().Enable("dataplane", "*", faults.Rule{Kind: faults.Sleep, Sleep: 2 * time.Millisecond})
	defer faults.Activate(inj)()

	fab := netgen.Fabric(netgen.FabricParams{
		Name: "cx", Spines: 4, Pods: 10, AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	if got := len(fab.Devices); got != 204 {
		t.Fatalf("fabric has %d devices, want 204", got)
	}

	before := runtime.NumGoroutine()
	const deadline = 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	snap := core.LoadGeneratedWithContext(ctx, pipeline.New(pipeline.Config{}), fab)
	dp := snap.DataPlane()
	elapsed := time.Since(start)

	t.Logf("cancelled 204-device run returned in %v (deadline %v)", elapsed, deadline)
	if elapsed > deadline+time.Second {
		t.Fatalf("run took %v, want within 1s of the %v deadline", elapsed, deadline)
	}
	if dp == nil {
		t.Fatal("cancelled run should still return a partial result")
	}
	if !snap.Cancelled() {
		t.Errorf("snapshot should report cancellation; diags: %s", diag.Summary(snap.Diags()))
	}
	if !diag.Has(snap.Diags(), diag.KindCancelled) {
		t.Errorf("want a cancelled diagnostic, got %s", diag.Summary(snap.Diags()))
	}

	// Worker pools must wind down: allow the schedulers a moment to retire
	// in-flight goroutines, then compare against the pre-run count.
	settle := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(settle) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// chaosFabricTexts renders a small Clos fabric for the service-level
// chaos tests.
func chaosFabricTexts(name string) map[string]string {
	fab := netgen.Fabric(netgen.FabricParams{Name: name, Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(fab.Devices))
	for _, d := range fab.Devices {
		texts[d.Hostname] = d.Text
	}
	return texts
}

// chaosServer starts an analysis service over httptest, returning the
// server and a tiny client closure: GET/PUT a path, return status and the
// CLI-equivalent exit code header.
func chaosServer(t *testing.T, cfg server.Config) (*server.Server, func(method, path string, body any) (int, string)) {
	t.Helper()
	cfg.Seed = 1
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	do := func(method, path string, body any) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(server.ExitCodeHeader)
	}
	return srv, do
}

// TestChaosKillMidWriteCacheRecovery kills the data-plane artifact's
// persistent-cache write mid-flight (injected panic between header and
// payload), leaves an orphan temp file as a crash would, and asserts the
// reopened cache recovers: the torn temp is swept, nothing corrupt is
// served, and the restart recomputes the lost artifact exactly once.
func TestChaosKillMidWriteCacheRecovery(t *testing.T) {
	dir := t.TempDir()
	texts := chaosFabricTexts("kw")

	inj := faults.New().Enable("diskcache", "write", faults.Rule{Kind: faults.Panic, Count: 1})
	restore := faults.Activate(inj)
	d1, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := pipeline.New(pipeline.Config{Disk: d1})
	snap1 := core.LoadTextWith(p1, texts)
	dp1 := snap1.DataPlane()
	if snap1.Degraded() || dp1 == nil {
		t.Fatalf("killed cache write degraded the analysis: %s", diag.Summary(snap1.Diags()))
	}
	if st := d1.Stats(); st.PutErrors != 1 || st.Puts != 0 {
		t.Fatalf("PutErrors = %d, Puts = %d; want the killed data-plane write and nothing else", st.PutErrors, st.Puts)
	}
	restore()
	// A second crash legacy: an orphan temp file (killed before rename).
	if err := os.WriteFile(filepath.Join(dir, "put-1.tmp"), []byte("torn header"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the directory and rerun on a fresh memory tier.
	d2, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Stats()
	if st.ScanRemoved != 1 {
		t.Errorf("recovery swept %d temp files, want 1", st.ScanRemoved)
	}
	if st.Quarantined != 0 {
		t.Errorf("a clean kill-mid-write must not quarantine entries: %+v", st)
	}
	p2 := pipeline.New(pipeline.Config{Disk: d2})
	snap2 := core.LoadTextWith(p2, texts)
	dp2 := snap2.DataPlane()
	if snap2.Degraded() || dp2 == nil {
		t.Fatalf("warm restart degraded: %s", diag.Summary(snap2.Diags()))
	}
	// The killed artifact was never published: the restart misses it,
	// recomputes it once, and writes it through.
	ps := p2.Stats()
	if ps.DataPlane.DiskHits != 0 || ps.DataPlane.ColdRuns != 1 {
		t.Errorf("data plane after a killed write: %+v, want one recompute and no disk hit", ps.DataPlane)
	}
	if st := d2.Stats(); st.Puts != 1 || st.Quarantined != 0 {
		t.Errorf("restart: Puts = %d, Quarantined = %d; want the recompute's write-through and no quarantine", st.Puts, st.Quarantined)
	}
	for name := range dp1.Nodes {
		if dp2.NodeFingerprint(name) != dp1.NodeFingerprint(name) {
			t.Errorf("node %s fingerprint differs after recovery", name)
		}
	}
}

// TestChaosBreakerTripHalfOpenReset drives a snapshot's circuit breaker
// through its full cycle over the service API: persistent injected panics
// trip it (closed → open), the cooldown half-opens it, and a healthy
// probe closes it again.
func TestChaosBreakerTripHalfOpenReset(t *testing.T) {
	restore := faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Panic}))
	defer restore()

	_, do := chaosServer(t, server.Config{Retries: -1, BreakerThreshold: 2,
		BreakerCooldown: 100 * time.Millisecond})
	if st, _ := do(http.MethodPut, "/snapshots/s", map[string]any{"configs": chaosFabricTexts("br")}); st != http.StatusOK {
		t.Fatalf("load: %d", st)
	}
	for i := 0; i < 2; i++ {
		if st, exit := do(http.MethodGet, "/snapshots/s/reachability", nil); st != http.StatusOK || exit != "4" {
			t.Fatalf("failing question %d: status %d exit %s", i, st, exit)
		}
	}
	if st, _ := do(http.MethodGet, "/snapshots/s/reachability", nil); st != http.StatusServiceUnavailable {
		t.Fatalf("open breaker admitted a request: %d", st)
	}
	restore() // heal the fault
	time.Sleep(120 * time.Millisecond)
	if st, exit := do(http.MethodGet, "/snapshots/s/reachability", nil); st != http.StatusOK || exit != "0" {
		t.Fatalf("half-open probe: status %d exit %s", st, exit)
	}
	if st, exit := do(http.MethodGet, "/snapshots/s/reachability", nil); st != http.StatusOK || exit != "0" {
		t.Fatalf("breaker did not close after probe: status %d exit %s", st, exit)
	}
}

// TestChaosDrainUnderLoad drains the service while slowed requests are in
// flight: every admitted request completes (exit 0), new arrivals shed
// 503, and no goroutines leak.
func TestChaosDrainUnderLoad(t *testing.T) {
	defer faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Sleep, Sleep: 100 * time.Millisecond}))()

	srv, do := chaosServer(t, server.Config{MaxConcurrent: 4})
	if st, _ := do(http.MethodPut, "/snapshots/s", map[string]any{"configs": chaosFabricTexts("dr")}); st != http.StatusOK {
		t.Fatalf("load failed: %d", st)
	}
	do(http.MethodGet, "/snapshots/s/reachability", nil) // warm the snapshot

	before := runtime.NumGoroutine()
	const n = 3
	type result struct {
		status int
		exit   string
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			st, exit := do(http.MethodGet, "/snapshots/s/reachability", nil)
			results <- result{st, exit}
		}()
	}
	time.Sleep(30 * time.Millisecond) // let them pass admission
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := do(http.MethodGet, "/snapshots/s/reachability", nil); st != http.StatusServiceUnavailable {
		t.Errorf("new request after drain: %d, want 503", st)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK || r.exit != "0" {
			t.Errorf("in-flight request dropped during drain: status %d exit %s", r.status, r.exit)
		}
	}
	// Goroutines settle back (slack for the HTTP stack's idle conns).
	settle := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+8 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}
