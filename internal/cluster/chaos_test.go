//go:build race

// The chaos suite runs only under the race detector (`make
// cluster-chaos`): it exercises the cluster's concurrent failover
// machinery — detector, forwarder retry, rehydration lease — under real
// goroutine interleavings, and the race build tag keeps its two full
// 204-device fabric builds out of the plain tier-1 test run.

package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/server"
)

func bigFabric() map[string]string {
	gen := netgen.Fabric(netgen.FabricParams{Name: "cx", Spines: 4, Pods: 10,
		AggPerPod: 2, TorPerPod: 18, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, d := range gen.Devices {
		texts[d.Hostname] = d.Text
	}
	return texts
}

// TestClusterChaosKillOwnerFailover is the acceptance scenario: a
// 3-member cluster over one shared cache serves the 204-device fabric;
// the snapshot's owner is killed while a question is in flight on it; the
// forwarder must retry the question against the new owner once the
// failure detector declares the death, and the answer must be
// byte-identical to a single-process run — with the new owner
// warm-starting from the dead member's cached artifacts rather than
// recomputing.
func TestClusterChaosKillOwnerFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	texts := bigFabric()
	scfg := func(seed int64, dir string) server.Config {
		return server.Config{Seed: seed, CacheDir: dir, MaxConcurrent: 4,
			QueueWait: 2 * time.Minute, RequestTimeout: 5 * time.Minute}
	}

	// Single-process reference answer.
	ref, err := server.New(scfg(1, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	resp, body := doJSON(t, rts.Client(), http.MethodPut, rts.URL+"/snapshots/ref",
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference load: %d %v", resp.StatusCode, body)
	}
	q := "/reachability?" + srcQuery(texts)
	_, refAns := doJSON(t, rts.Client(), http.MethodGet, rts.URL+"/snapshots/ref"+q, nil, nil)
	want, _ := refAns["text"].(string)
	if want == "" {
		t.Fatalf("reference answer empty: %v", refAns)
	}

	// 3-member cluster over one shared cache. Heartbeat timings are the
	// real control loop under test, so they are not test-fast.
	hb := 500 * time.Millisecond
	ccfg := cluster.Config{Heartbeat: hb, SuspectAfter: 2 * hb, FailoverWait: 4 * hb}
	dir := t.TempDir()
	n1 := startNode(t, "m1", "", scfg(1, dir), ccfg)
	n2 := startNode(t, "m2", n1.ts.URL, scfg(2, dir), ccfg)
	n3 := startNode(t, "m3", n1.ts.URL, scfg(3, dir), ccfg)
	v := waitMembers(t, n1, 3, 5*time.Second)

	// The snapshot must start on m2 and fail over to m3, so the heir's
	// warm start is observable on a node that never built the snapshot.
	name := ownedBy(t, v.Members, "m2", "m3")
	c := n1.ts.Client()
	resp, body = doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster load: %d %v", resp.StatusCode, body)
	}

	// Warm question: commits m2's data-plane artifact to the
	// shared cache and proves the forwarded path agrees with the
	// reference before any chaos.
	_, warm := doJSON(t, c, http.MethodGet, n1.ts.URL+"/snapshots/"+name+q, nil, nil)
	if warm["text"] != want {
		t.Fatalf("pre-chaos forwarded answer differs from single-process run")
	}

	// Slow the owner's next request so the kill lands mid-question, then
	// fire the question through the forwarder.
	restore := faults.Activate(faults.New().Enable("cluster-serve", "m2",
		faults.Rule{Kind: faults.Sleep, Sleep: 1500 * time.Millisecond, Count: 1}))
	defer restore()
	type answer struct {
		status int
		hop    string
		body   map[string]any
	}
	done := make(chan answer, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, n1.ts.URL+"/snapshots/"+name+q, nil)
		resp, err := c.Do(req)
		if err != nil {
			done <- answer{status: -1}
			return
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck // status drives the assertions
		resp.Body.Close()
		done <- answer{status: resp.StatusCode, hop: resp.Header.Get(cluster.HopHeader), body: m}
	}()

	// Let the question reach m2 and park in the injected sleep, then kill
	// the owner: sever its in-flight connections and stop its loops.
	time.Sleep(300 * time.Millisecond)
	t0 := time.Now()
	// A real kill: stop accepting (or the transport would transparently
	// re-dial the idempotent GET and the "dead" owner would answer),
	// sever in-flight connections, stop the cluster loops.
	n2.ts.Listener.Close()
	n2.ts.CloseClientConnections()
	n2.n.Kill()

	// The detector must evict the dead owner within its suspicion window
	// (2 heartbeats) plus detector-tick slack.
	v = waitMembers(t, n1, 2, ccfg.SuspectAfter+2*hb)
	failover := time.Since(t0)
	for _, m := range v.Members {
		if m.ID == "m2" {
			t.Fatal("dead member still in view")
		}
	}
	t.Logf("failover: view healed in %v (suspect window %v)", failover, ccfg.SuspectAfter)

	// The in-flight question must complete on the new owner with the
	// byte-identical answer.
	var ans answer
	select {
	case ans = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("question never completed after owner death")
	}
	if ans.status != http.StatusOK {
		t.Fatalf("post-kill question: status %d body %v", ans.status, ans.body)
	}
	if ans.hop != "m1" {
		t.Fatalf("post-kill answer missing forwarder hop header: %q", ans.hop)
	}
	if got, _ := ans.body["text"].(string); got != want {
		t.Fatalf("failover answer differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Warm start: the heir rehydrated from the manifest and served from
	// the shared cache the dead member populated — not a cold recompute.
	if m := n3.n.Metrics(); m.Rehydrations != 1 {
		t.Fatalf("heir rehydrations = %d, want 1 (%+v)", m.Rehydrations, m)
	}
	if d := n3.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("heir rebuilt cold — no shared-cache hits: %+v", d)
	}
	if m := n1.n.Metrics(); m.ForwardRetries == 0 {
		t.Fatalf("forwarder never retried: %+v", m)
	}
}

// TestClusterChaosKillCoordinator is the coordinator-failover acceptance
// scenario: the coordinator of a 3-member cluster over one shared cache
// both coordinates AND owns the 204-device snapshot; it is killed while
// a question is parked on it. A member must win the lease race and
// promote within twice the member-failover budget, the epoch must
// strictly increase, the retried answer must be byte-identical to a
// single-process run, and a second owner-kill right after must rehydrate
// from the shared cache with zero cold simulations — a FIB-build panic
// fault is armed the whole time, so any data plane computed instead of
// read from the shared cache fails the test.
func TestClusterChaosKillCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	texts := bigFabric()
	scfg := func(seed int64, dir string) server.Config {
		return server.Config{Seed: seed, CacheDir: dir, MaxConcurrent: 4,
			QueueWait: 2 * time.Minute, RequestTimeout: 5 * time.Minute}
	}

	// Single-process reference answer.
	ref, err := server.New(scfg(1, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	resp, body := doJSON(t, rts.Client(), http.MethodPut, rts.URL+"/snapshots/ref",
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference load: %d %v", resp.StatusCode, body)
	}
	q := "/reachability?" + srcQuery(texts)
	_, refAns := doJSON(t, rts.Client(), http.MethodGet, rts.URL+"/snapshots/ref"+q, nil, nil)
	want, _ := refAns["text"].(string)
	if want == "" {
		t.Fatalf("reference answer empty: %v", refAns)
	}

	// 3-member cluster, shared cache, real heartbeat timings.
	hb := 500 * time.Millisecond
	ccfg := cluster.Config{Heartbeat: hb, SuspectAfter: 2 * hb, FailoverWait: 4 * hb}
	dir := t.TempDir()
	n1 := startNode(t, "m1", "", scfg(1, dir), ccfg)
	n2 := startNode(t, "m2", n1.ts.URL, scfg(2, dir), ccfg)
	n3 := startNode(t, "m3", n1.ts.URL, scfg(3, dir), ccfg)
	v := waitMembers(t, n1, 3, 5*time.Second)

	// The snapshot lives on the coordinator itself and falls over to m3,
	// so the first kill takes out membership authority and snapshot owner
	// in one blow.
	name := ownedBy(t, v.Members, "m1", "m3")
	c := n2.ts.Client()
	resp, body = doJSON(t, c, http.MethodPut, n2.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster load: %d %v", resp.StatusCode, body)
	}
	_, warm := doJSON(t, c, http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	if warm["text"] != want {
		t.Fatalf("pre-chaos forwarded answer differs from single-process run")
	}

	epoch0 := n2.n.View().Epoch

	// Arm the chaos: the coordinator's next question parks in a 1.5s
	// sleep so the kill lands mid-flight, and from here on ANY FIB build —
	// i.e. any simulation that missed the shared cache — panics. (Parsing
	// re-runs on every rehydration: parse artifacts are memory-only.)
	inj := faults.New().
		Enable("cluster-serve", "m1", faults.Rule{Kind: faults.Sleep, Sleep: 1500 * time.Millisecond, Count: 1}).
		Enable("fib", "*", faults.Rule{Kind: faults.Panic})
	restore := faults.Activate(inj)
	defer restore()

	type answer struct {
		status int
		hop    string
		body   map[string]any
	}
	done := make(chan answer, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil)
		resp, err := c.Do(req)
		if err != nil {
			done <- answer{status: -1}
			return
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck // status drives the assertions
		resp.Body.Close()
		done <- answer{status: resp.StatusCode, hop: resp.Header.Get(cluster.HopHeader), body: m}
	}()

	// Let the question park on the coordinator, then kill it.
	time.Sleep(300 * time.Millisecond)
	t0 := time.Now()
	n1.ts.Listener.Close()
	n1.ts.CloseClientConnections()
	n1.n.Kill()

	// A member must promote within twice the member-failover budget
	// (detection window + view-propagation slack): the extra factor
	// covers waiting out the dead coordinator's last lease grant.
	budget := 2 * (ccfg.SuspectAfter + 2*hb)
	coord, _ := awaitSurvivorsHealed(n2, n3, t0.Add(budget), 20*time.Millisecond)
	if coord == nil {
		t.Fatalf("no member promoted within %v: m2=%+v m3=%+v",
			budget, n2.n.Metrics(), n3.n.Metrics())
	}
	t.Logf("coordinator failover: %s promoted, views healed in %v (budget %v)",
		coord.id, time.Since(t0), budget)
	if e := coord.n.Metrics().Epoch; e <= epoch0 {
		t.Fatalf("epoch did not strictly increase across the handoff: %d <= %d", e, epoch0)
	}

	// The parked question must complete through the forwarder with the
	// byte-identical answer, served by the heir's warm rehydration.
	var ans answer
	select {
	case ans = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("question never completed after coordinator death")
	}
	if ans.status != http.StatusOK {
		t.Fatalf("post-kill question: status %d body %v", ans.status, ans.body)
	}
	if ans.hop != "m2" {
		t.Fatalf("post-kill answer missing forwarder hop header: %q", ans.hop)
	}
	if got, _ := ans.body["text"].(string); got != want {
		t.Fatalf("failover answer differs from single-process run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if m := n3.n.Metrics(); m.Rehydrations != 1 {
		t.Fatalf("heir rehydrations = %d, want 1 (%+v)", m.Rehydrations, m)
	}
	if d := n3.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("heir rebuilt cold — no shared-cache hits: %+v", d)
	}

	// Second failover: kill the snapshot's new owner (m3). The remaining
	// member must converge to a 1-member view — promoting itself first if
	// m3 had won the coordinator race — and answer from the artifacts in
	// the shared cache, again without a single cold simulation.
	n3.ts.Listener.Close()
	n3.ts.CloseClientConnections()
	n3.n.Kill()
	t1 := time.Now()
	for {
		m := n2.n.Metrics()
		if m.Role == cluster.RoleCoordinator && m.Members == 1 {
			break
		}
		if time.Since(t1) > budget {
			t.Fatalf("survivor never converged after second kill: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_, second := doJSON(t, c, http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	if second["text"] != want {
		t.Fatalf("second-failover answer differs from single-process run")
	}
	if m := n2.n.Metrics(); m.Rehydrations != 1 {
		t.Fatalf("survivor rehydrations = %d, want 1 (%+v)", m.Rehydrations, m)
	}
	if d := n2.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("survivor rebuilt cold — no cache hits: %+v", d)
	}
	for k, hits := range inj.Hits() {
		if strings.HasPrefix(k, "fib/") {
			t.Fatalf("cold simulation reached the armed fault: %s fired %d times", k, hits)
		}
	}
}
