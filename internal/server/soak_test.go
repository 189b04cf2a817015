package server_test

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// TestSoak is the `make soak` target: a short race-gated soak that drives
// a persistent-cache server with a mixed concurrent workload (questions,
// compares, diagnostics, metrics) under injected slowness, verifying the
// hardening invariants hold over time — admission bound respected, only
// expected statuses produced, clean drain with every in-flight request
// answered — and that a warm restart over the same cache directory serves
// from disk and answers byte-identically. EXPERIMENTS.md E12 records the
// measured hit and shed rates.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak runs via `make soak`")
	}
	// Mild injected slowness makes overload (and thus 429 shedding)
	// actually happen at this concurrency.
	defer faults.Activate(faults.New().
		Enable("server", "reachability", faults.Rule{Kind: faults.Sleep, Sleep: 2 * time.Millisecond}))()

	dir := t.TempDir()
	texts := smallFabric()
	cfg := server.Config{MaxConcurrent: 2, MaxQueue: 2, QueueWait: 5 * time.Millisecond,
		CacheDir: dir}
	srv, ts := newServer(t, cfg)
	tc := newTestClient(t, ts)
	tc.load("prod", texts)
	if resp, ar := tc.do(http.MethodPost, "/snapshots/prod/edit", map[string]any{
		"as": "candidate", "changes": map[string]string{
			"sm-p02-tor02": addRoute(t, texts["sm-p02-tor02"], "ip route 10.0.0.0 255.255.255.128 Null0")},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: %d %s", resp.StatusCode, ar.Error)
	}
	// Warm both snapshots and pin the reference answer.
	_, refAns := tc.do(http.MethodGet, "/snapshots/prod/reachability", nil)
	if refAns.ExitCode != server.ExitOK || refAns.Text == "" {
		t.Fatalf("reference answer: exit %d", refAns.ExitCode)
	}

	paths := []string{
		"/snapshots/prod/reachability",
		"/snapshots/prod/compare?with=candidate",
		"/snapshots/prod/diagnostics",
		"/metrics",
		"/snapshots/prod/service-reachable?dst=10.0.0.0/24&port=443",
	}
	const workers = 8
	deadline := time.Now().Add(1200 * time.Millisecond)
	var ok200, shed, other atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				resp, err := tc.c.Get(tc.base + paths[(w+i)%len(paths)])
				if err != nil {
					other.Add(1)
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1)
					}
				default:
					other.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	m := srv.Metrics()
	t.Logf("soak: %d ok, %d shed, %d unexpected; peak in-flight %d, peak queued %d, p50 %.2fms p99 %.2fms",
		ok200.Load(), shed.Load(), other.Load(), m.PeakInFlight, m.PeakQueued, m.P50Ms, m.P99Ms)
	if other.Load() != 0 {
		t.Errorf("%d requests got unexpected statuses or malformed sheds", other.Load())
	}
	if ok200.Load() == 0 {
		t.Error("soak produced no successful answers")
	}
	if m.PeakInFlight > int64(cfg.MaxConcurrent) {
		t.Errorf("admission bound violated: peak %d > %d", m.PeakInFlight, cfg.MaxConcurrent)
	}
	if m.ServerErrors != 0 || m.PanicsRecovered != 0 {
		t.Errorf("soak hit server errors: errors=%d panics=%d", m.ServerErrors, m.PanicsRecovered)
	}
	// The answer never drifted under churn.
	if _, ar := tc.do(http.MethodGet, "/snapshots/prod/reachability", nil); ar.Text != refAns.Text {
		t.Error("answer drifted during soak")
	}
	// Clean drain.
	if err := srv.Drain(testCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}

	// Warm restart over the same cache directory: the data plane comes
	// from disk without simulating (parse artifacts are memory-only), and
	// the answer is byte-identical.
	warm, warmTS := newServer(t, server.Config{CacheDir: dir})
	tc2 := newTestClient(t, warmTS)
	tc2.load("prod", texts)
	_, warmAns := tc2.do(http.MethodGet, "/snapshots/prod/reachability", nil)
	if warmAns.Text != refAns.Text {
		t.Error("warm restart answer differs from the soaked server's")
	}
	wm := warm.Metrics()
	if wm.Pipeline.Parse.DiskHits != 0 || wm.Pipeline.DataPlane.DiskHits != 1 || wm.Pipeline.DataPlane.ColdRuns != 0 {
		t.Errorf("warm restart: parse disk hits %d, want 0; dataplane disk hits %d, want 1; dataplane cold runs %d, want 0",
			wm.Pipeline.Parse.DiskHits, wm.Pipeline.DataPlane.DiskHits, wm.Pipeline.DataPlane.ColdRuns)
	}
	if wm.Disk.Quarantined != 0 {
		t.Errorf("soak left %d corrupt cache entries", wm.Disk.Quarantined)
	}
}
