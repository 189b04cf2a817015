package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/netgen"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
)

// fabricTexts renders a Clos fabric as hostname → config text.
func fabricTexts(p netgen.FabricParams) map[string]string {
	snap := netgen.Fabric(p)
	texts := make(map[string]string, len(snap.Devices))
	for _, d := range snap.Devices {
		texts[d.Hostname] = d.Text
	}
	return texts
}

// bigFabric is the 204-device data center the end-to-end test runs
// against: 4 spines + 10 pods × (2 agg + 18 ToR).
func bigFabric() map[string]string {
	return fabricTexts(netgen.FabricParams{Name: "cx", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
}

// smallFabric (10 devices) keeps the cheaper robustness tests fast.
func smallFabric() map[string]string {
	return fabricTexts(netgen.FabricParams{Name: "sm", Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
}

// addRoute inserts a line before the trailing "end" so the parser sees it
// inside the config body.
func addRoute(t testing.TB, text, route string) string {
	t.Helper()
	if !strings.HasSuffix(text, "end\n") {
		t.Fatal("config text does not end with 'end'")
	}
	return strings.TrimSuffix(text, "end\n") + route + "\nend\n"
}

func testCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

// apiResp mirrors the server's JSON envelope.
type apiResp struct {
	Snapshot  string   `json:"snapshot"`
	Question  string   `json:"question"`
	ExitCode  int      `json:"exit_code"`
	Attempts  int      `json:"attempts"`
	Devices   []string `json:"devices"`
	Diags     []string `json:"diags"`
	Snapshots []string `json:"snapshots"`
	Breaker   string   `json:"breaker"`
	Deleted   bool     `json:"deleted"`
	Error     string   `json:"error"`
	Text      string   `json:"text"`
}

func newTestClient(t *testing.T, ts *httptest.Server) *testClient {
	return &testClient{t: t, base: ts.URL, c: ts.Client()}
}

func (tc *testClient) do(method, path string, body any) (*http.Response, apiResp) {
	tc.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var ar apiResp
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil && err != io.EOF {
		tc.t.Fatalf("%s %s: decode: %v", method, path, err)
	}
	return resp, ar
}

func (tc *testClient) load(name string, configs map[string]string) apiResp {
	tc.t.Helper()
	resp, ar := tc.do(http.MethodPut, "/snapshots/"+name, map[string]any{"configs": configs})
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("load %s: status %d: %s", name, resp.StatusCode, ar.Error)
	}
	return ar
}

func (tc *testClient) metrics() server.Metrics {
	tc.t.Helper()
	resp, err := tc.c.Get(tc.base + "/metrics")
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		tc.t.Fatal(err)
	}
	return m
}

func newServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestEndToEndFabric is the headline e2e: load the 204-device fabric,
// answer reachability / service / compare questions concurrently past the
// admission limit, and require byte-identical answers to the in-process
// API plus CLI-consistent exit-code mapping (0/2/3/4 ↔ 200/400/504/200).
func TestEndToEndFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("204-device fabric e2e is not -short")
	}
	texts := bigFabric()
	_, ts := newServer(t, server.Config{MaxConcurrent: 3, MaxQueue: 32,
		QueueWait: 2 * time.Minute, RequestTimeout: 2 * time.Minute})
	tc := newTestClient(t, ts)

	ar := tc.load("prod", texts)
	if len(ar.Devices) != 204 {
		t.Fatalf("loaded %d devices, want 204", len(ar.Devices))
	}
	if ar.ExitCode != server.ExitOK {
		t.Fatalf("load exit %d, diags %v", ar.ExitCode, ar.Diags)
	}

	// In-process reference on an independent pipeline: the service answers
	// must be byte-identical (deterministic stages + canonical ROBDD
	// construction make separately built encoders agree).
	ref := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	if ref.Degraded() {
		t.Fatalf("reference run degraded: %v", ref.Diags())
	}
	srcDevs := []string{"cx-p01-tor01", "cx-p05-tor10", "cx-p10-tor18"}
	var srcs []reach.SourceLoc
	var q []string
	for _, d := range srcDevs {
		if _, ok := texts[d]; !ok {
			t.Fatalf("no device %s in fabric", d)
		}
		srcs = append(srcs, reach.SourceLoc{Device: d, Iface: "host1"})
		q = append(q, "src="+d+"/host1")
	}
	query := "/snapshots/prod/reachability?" + strings.Join(q, "&")
	want := server.RenderFlows(ref.Reachability(core.ReachabilityParams{Sources: srcs}))
	if want == "" {
		t.Fatal("reference rendering is empty; test is vacuous")
	}

	// Null-route half of cx-p01-tor01's host subnet (10.0.0.0/24, the
	// first allocation) on another pod's ToR, then compare.
	const victim = "cx-p02-tor01"
	broken := addRoute(t, texts[victim], "ip route 10.0.0.0 255.255.255.128 Null0")
	resp, ear := tc.do(http.MethodPost, "/snapshots/prod/edit",
		map[string]any{"as": "candidate", "changes": map[string]string{victim: broken}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: %d %s", resp.StatusCode, ear.Error)
	}
	refAfter := ref.Edit(map[string]string{victim: broken})
	wantDiff := server.RenderDiffs(ref.CompareWith(refAfter))
	if wantDiff == "no differences\n" {
		t.Fatal("reference compare found no differences; edit is vacuous")
	}

	// Fire concurrent requests well past MaxConcurrent: a mix of
	// reachability and compare. The queue is sized to hold them, so all
	// must succeed and agree with the reference bytes.
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, want1 := query, want
			if i%2 == 1 {
				path, want1 = "/snapshots/prod/compare?with=candidate", wantDiff
			}
			resp, ar := tc.do(http.MethodGet, path, nil)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("req %d: status %d: %s", i, resp.StatusCode, ar.Error)
				return
			}
			if ar.ExitCode != server.ExitOK {
				errs <- fmt.Errorf("req %d: exit %d diags %v", i, ar.ExitCode, ar.Diags)
				return
			}
			if ar.Text != want1 {
				errs <- fmt.Errorf("req %d (%s): answer differs from in-process API:\n--- got ---\n%s\n--- want ---\n%s",
					i, path, ar.Text, want1)
			}
			if got := resp.Header.Get(server.ExitCodeHeader); got != "0" {
				errs <- fmt.Errorf("req %d: exit header %q", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Service reachability, same byte-identity requirement.
	dst := "10.0.0.0/24"
	p, err := ip4.ParsePrefix(dst)
	if err != nil {
		t.Fatal(err)
	}
	wantSvc := server.RenderService(ref.ServiceReachable(core.ServiceSpec{
		DstIPs: []ip4.Prefix{p}, Port: 443,
		Clients: []reach.SourceLoc{{Device: "cx-p10-tor18", Iface: "host1"}}}))
	resp, ar = tc.do(http.MethodGet,
		"/snapshots/prod/service-reachable?dst="+dst+"&port=443&client=cx-p10-tor18/host1", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("service-reachable: %d exit %d %s", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	if ar.Text != wantSvc {
		t.Errorf("service answer differs:\n--- got ---\n%s\n--- want ---\n%s", ar.Text, wantSvc)
	}

	m := tc.metrics()
	if m.PeakInFlight > 3 {
		t.Errorf("admission bound violated: peak in-flight %d > 3", m.PeakInFlight)
	}
	if m.Shed429+m.Shed503 != 0 {
		t.Errorf("unexpected shedding with a large queue: 429=%d 503=%d", m.Shed429, m.Shed503)
	}

	// Exit-code mapping parity with the CLI:
	//   unknown snapshot → 404 / usage (2)
	resp, ar = tc.do(http.MethodGet, "/snapshots/nope/reachability", nil)
	if resp.StatusCode != http.StatusNotFound || ar.ExitCode != server.ExitUsage {
		t.Errorf("unknown snapshot: %d exit %d", resp.StatusCode, ar.ExitCode)
	}
	//   bad parameter → 400 / usage (2)
	resp, ar = tc.do(http.MethodGet, "/snapshots/prod/reachability?dst=not-a-prefix", nil)
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage {
		t.Errorf("bad param: %d exit %d", resp.StatusCode, ar.ExitCode)
	}
	//   deadline on load → 504 / cancelled (3); the snapshot is not stored.
	resp, ar = tc.do(http.MethodPut, "/snapshots/doomed?timeout=1ns",
		map[string]any{"configs": smallFabric()})
	if resp.StatusCode != http.StatusGatewayTimeout || ar.ExitCode != server.ExitCancelled {
		t.Errorf("cancelled load: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	if resp, _ := tc.do(http.MethodGet, "/snapshots/doomed/diagnostics", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancelled load was stored: %d", resp.StatusCode)
	}
	//   deadline inside a question's fixed point → 504 / cancelled (3). An
	//   injected sleep in the guard of an unqueried source outlasts the
	//   deadline, so the source's fresh forward pass runs under an expired
	//   context and stops at its first check.
	restore := faults.Activate(faults.New().Enable("question", "cx-p03-tor01",
		faults.Rule{Kind: faults.Sleep, Sleep: 100 * time.Millisecond}))
	resp, ar = tc.do(http.MethodGet, "/snapshots/prod/reachability?src=cx-p03-tor01/host1&timeout=30ms", nil)
	restore()
	if resp.StatusCode != http.StatusGatewayTimeout || ar.ExitCode != server.ExitCancelled {
		t.Errorf("cancelled question: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	if !strings.Contains(strings.Join(ar.Diags, "\n"), "deadline expired during a reachability question") {
		t.Errorf("cancelled question: no analysis-stage cancellation among diags %v", ar.Diags)
	}
	//   ...and the poisoned snapshot recovers: the next question rebuilds
	//   from cached artifacts and answers cleanly.
	resp, ar = tc.do(http.MethodGet, "/snapshots/prod/reachability?src=cx-p03-tor01/host1", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Errorf("post-cancel recovery: %d exit %d diags %v", resp.StatusCode, ar.ExitCode, ar.Diags)
	}
	//   the original answer is still byte-identical after the rebuild.
	resp, ar = tc.do(http.MethodGet, query, nil)
	if resp.StatusCode != http.StatusOK || ar.Text != want {
		t.Errorf("answer drifted after rebuild (status %d)", resp.StatusCode)
	}
}

// TestCompareDeadlineReachesCandidate: a compare's deadline governs the
// candidate snapshot's stages too. The primary is warmed first, so the
// injected sleep in every data-plane exchange step slows only the
// candidate's simulation, and the deadline lands while it runs. The
// compare answers 504 / exit 3 promptly, and a following compare without
// a timeout, on the rebuilt snapshots, renders byte-identically to a cold
// recompute.
func TestCompareDeadlineReachesCandidate(t *testing.T) {
	texts := smallFabric()
	const victim = "sm-p02-tor01"
	edited := make(map[string]string, len(texts))
	for n, text := range texts {
		edited[n] = text
	}
	edited[victim] = addRoute(t, texts[victim], "ip route 10.0.0.0 255.255.255.128 Null0")
	pl := pipeline.New(pipeline.Config{})
	want := server.RenderDiffs(core.LoadTextWith(pl, texts).CompareWith(core.LoadTextWith(pl, edited)))
	if want == "no differences\n" {
		t.Fatal("reference compare found no differences; edit is vacuous")
	}

	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	tc.load("a", texts)
	tc.load("b", edited)
	if resp, ar := tc.do(http.MethodGet, "/snapshots/a/reachability", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming a: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}

	restore := faults.Activate(faults.New().Enable("dataplane", "*",
		faults.Rule{Kind: faults.Sleep, Sleep: 10 * time.Millisecond}))
	const deadline = 50 * time.Millisecond
	start := time.Now()
	resp, ar := tc.do(http.MethodGet, "/snapshots/a/compare?with=b&timeout=50ms", nil)
	elapsed := time.Since(start)
	restore()
	if resp.StatusCode != http.StatusGatewayTimeout || ar.ExitCode != server.ExitCancelled {
		t.Fatalf("compare past its deadline: %d exit %d (%s), after %v", resp.StatusCode, ar.ExitCode, ar.Error, elapsed)
	}
	if elapsed > deadline+time.Second {
		t.Errorf("cancelled compare took %v, want within 1s of the %v deadline", elapsed, deadline)
	}

	resp, ar = tc.do(http.MethodGet, "/snapshots/a/compare?with=b", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("compare after cancellation: %d exit %d diags %v", resp.StatusCode, ar.ExitCode, ar.Diags)
	}
	if ar.Text != want {
		t.Errorf("compare after cancellation differs from a cold recompute:\n--- got ---\n%s\n--- want ---\n%s", ar.Text, want)
	}
}

// TestOverloadShedding drives 4x the admission capacity of slow requests
// and requires 429 shedding with Retry-After, a respected concurrency
// bound, and no dropped in-flight requests.
func TestOverloadShedding(t *testing.T) {
	defer faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Sleep, Sleep: 150 * time.Millisecond}))()

	_, ts := newServer(t, server.Config{MaxConcurrent: 2, MaxQueue: 2,
		QueueWait: 40 * time.Millisecond, RequestTimeout: 10 * time.Second})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())

	// Warm the snapshot so overload requests are pure question time.
	if resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil); resp.StatusCode != 200 || ar.ExitCode != 0 {
		t.Fatalf("warmup failed: %d %v", resp.StatusCode, ar.Diags)
	}

	const n = 16 // 4x (MaxConcurrent + MaxQueue)
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := tc.c.Get(tc.base + "/snapshots/s/reachability")
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok200, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("shed response %d missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, c)
		}
	}
	if ok200 == 0 {
		t.Error("no requests succeeded under overload")
	}
	if shed == 0 {
		t.Error("4x overload shed nothing")
	}
	m := tc.metrics()
	if m.PeakInFlight > 2 {
		t.Errorf("concurrency bound violated: peak %d > 2", m.PeakInFlight)
	}
	if m.Shed429 == 0 {
		t.Errorf("no 429 shedding recorded: 429=%d 503=%d", m.Shed429, m.Shed503)
	}
}

// TestRetryRecoversTransientFault injects panics into the first two
// attempts of a question; the server must retry with backoff and return a
// clean answer on the third.
func TestRetryRecoversTransientFault(t *testing.T) {
	defer faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Panic, Count: 2}))()

	_, ts := newServer(t, server.Config{Retries: 2, RetryBase: time.Millisecond})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())

	resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("retried question: %d exit %d diags %v", resp.StatusCode, ar.ExitCode, ar.Diags)
	}
	if ar.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", ar.Attempts)
	}
	if m := tc.metrics(); m.Retries != 2 {
		t.Errorf("retries counter = %d, want 2", m.Retries)
	}
}

// TestCircuitBreaker trips a snapshot's breaker with persistent injected
// panics, verifies 503 + Retry-After while open (and that other questions
// are unaffected), then heals the fault and confirms the half-open probe
// closes it again.
func TestCircuitBreaker(t *testing.T) {
	restore := faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Panic}))
	defer restore()

	_, ts := newServer(t, server.Config{Retries: -1, BreakerThreshold: 2,
		BreakerCooldown: 100 * time.Millisecond})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())

	// Two degraded answers trip the breaker.
	for i := 0; i < 2; i++ {
		resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
		if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitDegraded {
			t.Fatalf("failing question %d: %d exit %d", i, resp.StatusCode, ar.ExitCode)
		}
	}
	resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker admitted a request: %d %+v", resp.StatusCode, ar)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker rejection missing Retry-After")
	}
	// The breaker is per-snapshot, not server-wide: a different question
	// on the same snapshot is still shed, but an unaffected question on
	// the same server answers (the fault targets reachability only).
	resp, ar = tc.do(http.MethodGet, "/snapshots/s/service-reachable?dst=10.0.0.0/24", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("snapshot breaker should shed all its questions: %d", resp.StatusCode)
	}
	tc.load("other", smallFabric())
	resp, ar = tc.do(http.MethodGet, "/snapshots/other/service-reachable?dst=10.0.0.0/24", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("healthy snapshot caught the breaker: %d %s", resp.StatusCode, ar.Error)
	}

	// Heal the fault, wait out the cooldown: the half-open probe closes it.
	restore()
	time.Sleep(120 * time.Millisecond)
	resp, ar = tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("half-open probe: %d exit %d diags %v", resp.StatusCode, ar.ExitCode, ar.Diags)
	}
	resp, _ = tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("breaker did not close after probe success: %d", resp.StatusCode)
	}
	if m := tc.metrics(); m.BreakerTrips != 1 || m.BreakerRejects == 0 {
		t.Errorf("breaker counters: trips=%d rejects=%d", m.BreakerTrips, m.BreakerRejects)
	}
}

// TestUnknownSourceLeavesBreakerClosed: a reachability question naming a
// source the snapshot does not have is answered, with no row, and is no
// service failure. Three such questions and then a valid one all answer
// 200 with exit 0, with no retry, no breaker trip and no panic
// diagnostic.
func TestUnknownSourceLeavesBreakerClosed(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())
	unknown := "/snapshots/s/reachability?src=nope/eth0"
	for i, path := range []string{unknown, unknown, unknown, "/snapshots/s/reachability"} {
		resp, ar := tc.do(http.MethodGet, path, nil)
		if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
			t.Errorf("request %d (%s): status %d exit %d (%s)", i, path, resp.StatusCode, ar.ExitCode, ar.Error)
		}
		for _, d := range ar.Diags {
			if strings.HasPrefix(d, "[panic]") {
				t.Errorf("request %d (%s): %s", i, path, d)
			}
		}
		if valid := path != unknown; valid != (ar.Text != "") {
			t.Errorf("request %d (%s): text %q", i, path, ar.Text)
		}
	}
	if m := tc.metrics(); m.BreakerTrips != 0 || m.Retries != 0 {
		t.Errorf("breaker trips %d, retries %d; want 0 and 0", m.BreakerTrips, m.Retries)
	}
}

// TestEditReplacesAncestor: an entry holds its merged texts and no link
// to the snapshot it was edited from, so an edit may be published under
// the name of its own ancestor. After "edit a as b" and "edit b as a",
// a answers reachability exactly as a fresh load of its merged texts.
func TestEditReplacesAncestor(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	texts := smallFabric()
	tc.load("a", texts)

	const dev = "sm-p02-tor02"
	unused := "ip route 10.99.0.0 255.255.255.0 Null0"
	broken := "ip route 10.0.0.0 255.255.255.128 Null0"
	edit := func(from, as, text string) {
		t.Helper()
		resp, ar := tc.do(http.MethodPost, "/snapshots/"+from+"/edit",
			map[string]any{"as": as, "changes": map[string]string{dev: text}})
		if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
			t.Fatalf("edit %s as %s: %d exit %d %s", from, as, resp.StatusCode, ar.ExitCode, ar.Error)
		}
	}
	once := addRoute(t, texts[dev], unused)
	edit("a", "b", once)
	twice := addRoute(t, once, broken)
	edit("b", "a", twice)

	merged := make(map[string]string, len(texts))
	for k, v := range texts {
		merged[k] = v
	}
	merged[dev] = twice
	tc.load("fresh", merged)
	reach := func(name string) string {
		t.Helper()
		resp, ar := tc.do(http.MethodGet, "/snapshots/"+name+"/reachability", nil)
		if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
			t.Fatalf("reachability on %s: %d exit %d %v", name, resp.StatusCode, ar.ExitCode, ar.Diags)
		}
		return ar.Text
	}
	got, want := reach("a"), reach("fresh")
	if got != want {
		t.Errorf("a after editing onto its ancestor answers\n%s\nwant the fresh load's\n%s", got, want)
	}
	if got == reach("b") {
		t.Error("the null route changed no reachability answer")
	}
}

// TestBreakerSurvivesAbortedProbe: a half-open probe whose request ends
// without a service-quality verdict (here: a client error, rejected
// after the probe slot was taken) must release the slot — not wedge the
// breaker with a probe marked in flight forever, and not close it as a
// phantom success. The next real arrival is then admitted as a fresh
// probe and closes the breaker on success.
func TestBreakerSurvivesAbortedProbe(t *testing.T) {
	restore := faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Panic}))
	defer restore()

	_, ts := newServer(t, server.Config{Retries: -1, BreakerThreshold: 2,
		BreakerCooldown: 50 * time.Millisecond})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())

	for i := 0; i < 2; i++ {
		if resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil); ar.ExitCode != server.ExitDegraded {
			t.Fatalf("failing question %d: %d exit %d", i, resp.StatusCode, ar.ExitCode)
		}
	}
	if resp, _ := tc.do(http.MethodGet, "/snapshots/s/reachability", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker did not trip: %d", resp.StatusCode)
	}

	// Wait out the cooldown, then burn the half-open probe on a request
	// rejected for a bad parameter after the breaker admitted it.
	time.Sleep(70 * time.Millisecond)
	resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability?timeout=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage {
		t.Fatalf("aborted probe: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	// The phantom outcome must not have closed the breaker: the fault is
	// still active, so if the next request is admitted it degrades (a real
	// probe), and its failure re-opens the breaker rather than counting
	// from a wrongly reset state.
	resp, ar = tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitDegraded {
		t.Fatalf("probe after aborted probe: %d exit %d (want admitted + degraded)", resp.StatusCode, ar.ExitCode)
	}
	if resp, _ := tc.do(http.MethodGet, "/snapshots/s/reachability", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed probe did not re-open the breaker: %d", resp.StatusCode)
	}

	// Heal the fault; after another cooldown the same abort-then-probe
	// sequence must end with the breaker closed, not wedged.
	restore()
	time.Sleep(70 * time.Millisecond)
	if resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability?timeout=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("second aborted probe: %d (%s)", resp.StatusCode, ar.Error)
	}
	resp, ar = tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("breaker wedged after aborted probe: %d exit %d %s", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	resp, ar = tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("breaker did not close after probe success: %d exit %d", resp.StatusCode, ar.ExitCode)
	}
}

// TestDrain verifies graceful shutdown: in-flight requests complete with
// full answers, new requests shed 503, readiness flips, and no goroutines
// leak.
func TestDrain(t *testing.T) {
	defer faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Sleep, Sleep: 100 * time.Millisecond}))()

	srv, ts := newServer(t, server.Config{MaxConcurrent: 4})
	tc := newTestClient(t, ts)
	tc.load("s", smallFabric())
	// Warm up so the in-flight requests below answer from cache.
	tc.do(http.MethodGet, "/snapshots/s/reachability", nil)

	before := runtime.NumGoroutine()

	// Start in-flight requests, then drain while they sleep.
	const n = 3
	results := make(chan apiResp, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
			results <- ar
		}()
	}
	time.Sleep(30 * time.Millisecond) // let them pass admission
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(testCtx(t, 5*time.Second)) }()
	time.Sleep(10 * time.Millisecond)

	// Readiness has flipped and new work is shed with 503.
	resp, err := tc.c.Get(tc.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d", resp.StatusCode)
	}
	resp2, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: %d %+v", resp2.StatusCode, ar)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(results)
	got := 0
	for ar := range results {
		got++
		if ar.ExitCode != server.ExitOK {
			t.Errorf("in-flight request dropped during drain: exit %d %s", ar.ExitCode, ar.Error)
		}
	}
	if got != n {
		t.Errorf("%d of %d in-flight requests answered", got, n)
	}

	// Goroutines settle back (slack for the HTTP stack's idle conns).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestWarmRestart is the service-level crash/restart property: a second
// server sharing only the cache directory (fresh process state) re-parses
// but serves the data plane from disk without simulating — even with a
// torn temp file left by a kill mid-write — and answers byte-identically
// to the cold run.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	texts := smallFabric()

	cold, coldTS := newServer(t, server.Config{CacheDir: dir})
	tc := newTestClient(t, coldTS)
	tc.load("s", texts)
	_, coldAns := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if coldAns.ExitCode != server.ExitOK || coldAns.Text == "" {
		t.Fatalf("cold answer: exit %d, %d bytes", coldAns.ExitCode, len(coldAns.Text))
	}
	coldStats := cold.Metrics()
	if coldStats.Disk.Puts == 0 {
		t.Fatal("cold run persisted nothing")
	}
	coldTS.Close()

	// The crash legacy: an orphan temp from a kill mid-write.
	if err := os.WriteFile(filepath.Join(dir, "put-999.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Warm server: same directory, fresh everything else.
	warm, warmTS := newServer(t, server.Config{CacheDir: dir})
	tc2 := newTestClient(t, warmTS)
	tc2.load("s", texts)
	_, warmAns := tc2.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if warmAns.ExitCode != server.ExitOK {
		t.Fatalf("warm answer degraded: %v", warmAns.Diags)
	}
	if warmAns.Text != coldAns.Text {
		t.Errorf("warm answer differs from cold:\n--- warm ---\n%s\n--- cold ---\n%s", warmAns.Text, coldAns.Text)
	}
	m := warm.Metrics()
	if m.Disk.ScanRemoved != 1 {
		t.Errorf("recovery scan removed %d temps, want 1", m.Disk.ScanRemoved)
	}
	if m.Pipeline.Parse.DiskHits != 0 {
		t.Errorf("parse disk hits = %d, want 0 (parse artifacts are memory-only)", m.Pipeline.Parse.DiskHits)
	}
	if m.Pipeline.DataPlane.DiskHits != 1 {
		t.Errorf("dataplane disk hits = %d, want 1", m.Pipeline.DataPlane.DiskHits)
	}
	if m.Pipeline.DataPlane.ColdRuns != 0 {
		t.Errorf("warm restart re-simulated the data plane: %+v", m.Pipeline.DataPlane)
	}
}
