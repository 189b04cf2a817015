package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ip4"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
	"repro/internal/sweep"
)

// sweepStreamLine mirrors the NDJSON lines of POST /snapshots/{name}/sweep.
type sweepStreamLine struct {
	Type       string         `json:"type"`
	Snapshot   string         `json:"snapshot"`
	Enumerated int            `json:"enumerated"`
	Classes    int            `json:"classes"`
	Executed   int            `json:"executed"`
	Pruned     int            `json:"pruned"`
	Verdict    *sweep.Verdict `json:"verdict"`
	Violations int            `json:"violations"`
	Degraded   bool           `json:"degraded"`
	ExitCode   int            `json:"exit_code"`
	Error      string         `json:"error"`
}

// TestSweepEndpointStreamsVerdicts runs a default k=1 link+node sweep over
// the small fabric and requires: a plan line, one verdict line per
// enumerated scenario (streamed, in class-completion order), a summary
// trailer with exit code 0, and verdicts byte-identical to an in-process
// sweep on an independent pipeline.
func TestSweepEndpointStreamsVerdicts(t *testing.T) {
	texts := smallFabric()
	_, ts := newServer(t, server.Config{RequestTimeout: 2 * time.Minute})
	tc := newTestClient(t, ts)
	tc.load("sm", texts)

	// Monitor one intra-pod flow (sm-p01-tor01's hosts → sm-p01-tor02's
	// host subnet) so blast-radius pruning has teeth: the spines and the
	// other pod fall outside the monitored cone. The dst prefix is
	// discovered from an in-process parse of the same texts.
	base := core.LoadTextWith(pipeline.New(pipeline.Config{}), texts)
	var dst string
	for _, in := range base.Net.Devices["sm-p01-tor02"].InterfaceNames() {
		if strings.HasPrefix(in, "host") {
			p := base.Net.Devices["sm-p01-tor02"].Interfaces[in].Addresses[0]
			dst = ip4.Prefix{Addr: p.Addr, Len: p.Len}.Canonical().String()
			break
		}
	}
	if dst == "" {
		t.Fatal("no host subnet on sm-p01-tor02")
	}
	body, _ := json.Marshal(map[string]any{
		"workers": 4, "src": []string{"sm-p01-tor01/host1"}, "dst": []string{dst}})
	resp, err := tc.c.Post(ts.URL+"/snapshots/sm/sweep", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}

	var plan, summary *sweepStreamLine
	var verdicts []sweep.Verdict
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line sweepStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "plan":
			if plan != nil || summary != nil || len(verdicts) > 0 {
				t.Fatal("plan line must come first, once")
			}
			plan = &line
		case "verdict":
			if line.Verdict == nil {
				t.Fatal("verdict line without payload")
			}
			verdicts = append(verdicts, *line.Verdict)
		case "summary":
			summary = &line
		default:
			t.Fatalf("unknown line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if plan == nil || summary == nil {
		t.Fatal("stream missing plan or summary line")
	}
	if summary.ExitCode != server.ExitOK || summary.Degraded {
		t.Fatalf("summary exit %d degraded=%v error=%q", summary.ExitCode, summary.Degraded, summary.Error)
	}
	if plan.Enumerated == 0 || plan.Enumerated != summary.Enumerated {
		t.Fatalf("plan enumerated %d vs summary %d", plan.Enumerated, summary.Enumerated)
	}
	if len(verdicts) != summary.Enumerated {
		t.Fatalf("streamed %d verdicts for %d scenarios", len(verdicts), summary.Enumerated)
	}
	if summary.Executed+summary.Pruned != summary.Enumerated || summary.Pruned == 0 {
		t.Fatalf("executed %d + pruned %d != enumerated %d (or nothing pruned)",
			summary.Executed, summary.Pruned, summary.Enumerated)
	}
	if summary.Violations == 0 {
		t.Error("a full node sweep must violate some flow (downing a ToR strands its hosts)")
	}

	// The streamed verdicts, canonically ordered, must be byte-identical
	// to an in-process sweep of the same spec on an independent pipeline.
	dstPrefix, err := ip4.ParsePrefix(dst)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sweep.Run(context.Background(), base, sweep.Spec{Workers: 2,
		Sources: []reach.SourceLoc{{Device: "sm-p01-tor01", Iface: "host1"}},
		DstIPs:  []ip4.Prefix{dstPrefix}})
	if err != nil {
		t.Fatal(err)
	}
	sweep.SortVerdicts(verdicts)
	sweep.SortVerdicts(ref.Verdicts)
	got, _ := json.Marshal(verdicts)
	want, _ := json.Marshal(ref.Verdicts)
	if !bytes.Equal(got, want) {
		t.Errorf("server verdicts differ from in-process sweep:\n got %s\nwant %s", got, want)
	}
}

// TestSweepEndpointErrors covers the non-streaming outcomes: unknown
// snapshot (404), malformed spec (400), bad timeout (400), an expired
// client deadline (504), planning degraded by a fault (200, exit 4), and
// an open breaker (503) — all before headers commit, so they use the JSON
// envelope with CLI exit codes. A sweep settles the breaker and the
// counters exactly as a question does.
func TestSweepEndpointErrors(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	tc.load("sm", smallFabric())

	// An expired deadline is answered before planning runs, so a cold
	// snapshot and a warm one (whose planning would otherwise finish
	// before any cancellation point) both answer 504.
	before := tc.metrics()
	resp, ar := tc.do(http.MethodPost, "/snapshots/sm/sweep?timeout=1ns", nil)
	if resp.StatusCode != http.StatusGatewayTimeout || ar.ExitCode != server.ExitCancelled {
		t.Errorf("expired deadline: status %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	if m := tc.metrics(); m.Cancelled != before.Cancelled+1 {
		t.Errorf("expired deadline: cancelled %d -> %d, want +1", before.Cancelled, m.Cancelled)
	}

	resp, ar = tc.do(http.MethodPost, "/snapshots/nope/sweep", nil)
	if resp.StatusCode != http.StatusNotFound || ar.ExitCode != server.ExitUsage {
		t.Errorf("unknown snapshot: status %d exit %d", resp.StatusCode, ar.ExitCode)
	}
	resp, ar = tc.do(http.MethodPost, "/snapshots/sm/sweep",
		map[string]any{"fail": []string{"gremlins"}})
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage {
		t.Errorf("bad fail kind: status %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	resp, ar = tc.do(http.MethodPost, "/snapshots/sm/sweep",
		map[string]any{"k": 3})
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage {
		t.Errorf("k=3: status %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	resp, ar = tc.do(http.MethodPost, "/snapshots/sm/sweep?timeout=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage {
		t.Errorf("bad timeout: status %d exit %d", resp.StatusCode, ar.ExitCode)
	}

	// Breaker rows on a fresh server: a planning panic in the monitored
	// source's reachability guard degrades the sweep, a malformed body is
	// neutral, and two degraded sweeps trip the breaker.
	defer faults.Activate(faults.New().
		Enable("question", "sm-p01-tor01", faults.Rule{Kind: faults.Panic}))()
	_, ts = newServer(t, server.Config{Retries: -1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	tc = newTestClient(t, ts)
	tc.load("sm", smallFabric())
	spec := map[string]any{"src": []string{"sm-p01-tor01/host1"}}
	degraded := func(i int) {
		t.Helper()
		before := tc.metrics()
		resp, ar := tc.do(http.MethodPost, "/snapshots/sm/sweep", spec)
		if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitDegraded {
			t.Fatalf("degraded planning %d: status %d exit %d (%s)", i, resp.StatusCode, ar.ExitCode, ar.Error)
		}
		if m := tc.metrics(); m.Degraded != before.Degraded+1 {
			t.Errorf("degraded planning %d: degraded %d -> %d, want +1", i, before.Degraded, m.Degraded)
		}
	}
	degraded(1)
	resp, err := tc.c.Post(ts.URL+"/snapshots/sm/sweep", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(server.ExitCodeHeader) != "2" {
		t.Errorf("malformed body: status %d exit %s", resp.StatusCode, resp.Header.Get(server.ExitCodeHeader))
	}
	if _, ar := tc.do(http.MethodGet, "/snapshots/sm/diagnostics", nil); ar.Breaker != "closed" {
		t.Fatalf("breaker %s after one degraded sweep, want closed", ar.Breaker)
	}
	degraded(2) // the malformed body left the failure count at one: this trips it
	before = tc.metrics()
	resp, _ = tc.do(http.MethodPost, "/snapshots/sm/sweep", spec)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("open breaker: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if m := tc.metrics(); m.BreakerRejects != before.BreakerRejects+1 {
		t.Errorf("open breaker: rejects %d -> %d, want +1", before.BreakerRejects, m.BreakerRejects)
	}
}

// TestSweepRejectsUnknownSources: a sweep monitoring a source the
// snapshot does not have is the client's error: 400 with exit 2 naming
// the source, before planning runs any question. It counts as neither
// degraded nor a breaker failure (the threshold here is one), and the
// snapshot still answers cleanly.
func TestSweepRejectsUnknownSources(t *testing.T) {
	_, ts := newServer(t, server.Config{Retries: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	tc := newTestClient(t, ts)
	tc.load("sm", smallFabric())
	resp, ar := tc.do(http.MethodPost, "/snapshots/sm/sweep",
		map[string]any{"src": []string{"sm-p01-tor01/host1", "nope/eth0"}})
	if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage || !strings.Contains(ar.Error, "nope/eth0") {
		t.Errorf("unknown source: status %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	if n := strings.Count(ar.Error, "sweep: "); n != 1 {
		t.Errorf("unknown source: error %q carries the \"sweep: \" prefix %d times, want once", ar.Error, n)
	}
	if m := tc.metrics(); m.Degraded != 0 || m.BreakerTrips != 0 || m.PanicsRecovered != 0 || m.ClientErrors != 1 {
		t.Errorf("degraded %d, breaker trips %d, panics %d, client errors %d; want 0, 0, 0, 1",
			m.Degraded, m.BreakerTrips, m.PanicsRecovered, m.ClientErrors)
	}
	resp, ar = tc.do(http.MethodGet, "/snapshots/sm/reachability?src=sm-p01-tor01/host1", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK || len(ar.Diags) > 0 {
		t.Errorf("after the refused sweep: status %d exit %d diags %v", resp.StatusCode, ar.ExitCode, ar.Diags)
	}
}

// TestDeviceOnlySourceRefused: every source of the forwarding graph is an
// interface, so a device-only source location is refused with 400 / exit
// 2 naming the value, by reachability, service-reachable and the sweep
// body alike, before any snapshot work.
func TestDeviceOnlySourceRefused(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	tc.load("sm", smallFabric())
	for _, req := range []struct {
		method, path string
		body         any
		bad          string // the refused value
	}{
		{http.MethodGet, "/snapshots/sm/reachability?src=sm-p01-tor01", nil, "sm-p01-tor01"},
		{http.MethodGet, "/snapshots/sm/reachability?src=sm-p01-tor01/host1&src=/host1", nil, "/host1"},
		{http.MethodGet, "/snapshots/sm/service-reachable?dst=10.0.0.0/24&port=443&client=sm-p01-tor01", nil, "sm-p01-tor01"},
		{http.MethodPost, "/snapshots/sm/sweep", map[string]any{"src": []string{"sm-p01-tor01"}}, "sm-p01-tor01"},
	} {
		resp, ar := tc.do(req.method, req.path, req.body)
		if resp.StatusCode != http.StatusBadRequest || ar.ExitCode != server.ExitUsage || !strings.Contains(ar.Error, `"`+req.bad+`"`) {
			t.Errorf("%s %s: status %d exit %d (%s), want 400 / exit 2 naming %q",
				req.method, req.path, resp.StatusCode, ar.ExitCode, ar.Error, req.bad)
		}
	}
	if m := tc.metrics(); m.ClientErrors != 4 || m.Degraded != 0 || m.BreakerTrips != 0 {
		t.Errorf("client errors %d, degraded %d, breaker trips %d; want 4, 0, 0", m.ClientErrors, m.Degraded, m.BreakerTrips)
	}
}

// TestExpiredDeadlineOnWarmSnapshot: a deadline that has already expired
// is answered 504 / exit 3 and counted as cancelled on a warm snapshot,
// whose memoized answers need no cancellation point, as on a cold one —
// for a question and for a sweep's planning alike.
func TestExpiredDeadlineOnWarmSnapshot(t *testing.T) {
	_, ts := newServer(t, server.Config{})
	tc := newTestClient(t, ts)
	tc.load("sm", smallFabric())
	if resp, ar := tc.do(http.MethodGet, "/snapshots/sm/reachability", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/snapshots/sm/reachability?timeout=1ns"},
		{http.MethodPost, "/snapshots/sm/sweep?timeout=1ns"},
	} {
		before := tc.metrics()
		resp, ar := tc.do(req.method, req.path, nil)
		if resp.StatusCode != http.StatusGatewayTimeout || ar.ExitCode != server.ExitCancelled {
			t.Errorf("%s %s: status %d exit %d (%s)", req.method, req.path, resp.StatusCode, ar.ExitCode, ar.Error)
		}
		if m := tc.metrics(); m.Cancelled != before.Cancelled+1 {
			t.Errorf("%s %s: cancelled %d -> %d, want +1", req.method, req.path, before.Cancelled, m.Cancelled)
		}
	}
}

// TestSweepProbePanicReleasesBreaker: a sweep admitted as a half-open
// probe that panics outside planning's containment (here the injected
// server/sweep fault) answers 500 and must still settle the breaker as a
// failure. The probe slot is released, so after a fresh cooldown a
// healthy question is admitted as the next probe and closes the breaker
// instead of being shed forever.
func TestSweepProbePanicReleasesBreaker(t *testing.T) {
	restore := faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Panic, Count: 2}))
	defer restore()
	const cooldown = 50 * time.Millisecond
	_, ts := newServer(t, server.Config{Retries: -1, BreakerThreshold: 2, BreakerCooldown: cooldown})
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

	restore()
	defer faults.Activate(faults.New().
		Enable("server", "sweep", faults.Rule{Kind: faults.Panic, Count: 1}))()
	time.Sleep(cooldown + 20*time.Millisecond)
	if resp, ar := tc.do(http.MethodPost, "/snapshots/s/sweep", nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking sweep probe: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}

	time.Sleep(cooldown + 20*time.Millisecond)
	resp, ar := tc.do(http.MethodGet, "/snapshots/s/reachability", nil)
	if resp.StatusCode != http.StatusOK || ar.ExitCode != server.ExitOK {
		t.Fatalf("breaker wedged by the panicking probe: %d exit %d (%s)", resp.StatusCode, ar.ExitCode, ar.Error)
	}
}
