package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

// sweepStream posts a sweep and splits the NDJSON response into verdict
// lines (sorted, for set comparison) and the summary line.
func sweepStream(t *testing.T, c *http.Client, url string, body []byte) (verdicts []string, summary map[string]any) {
	t.Helper()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch probe.Type {
		case "verdict":
			verdicts = append(verdicts, string(line))
		case "summary":
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(verdicts)
	return verdicts, summary
}

// TestForwardedSweepMatchesLocal: a sweep through a 2-member cluster,
// entered via the NON-owner so the NDJSON stream crosses a forwarding
// hop, must produce exactly the verdict set and summary of the same sweep
// on a standalone single-process server. The owner's request checks apply
// through the hop: a malformed timeout is a 400, as it is standalone.
func TestForwardedSweepMatchesLocal(t *testing.T) {
	texts := smallFabric("sm")
	body := []byte(`{"k":1,"fail":["links"],"workers":2}`)

	// Single-process reference.
	ref, err := server.New(server.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	resp, rbody := doJSON(t, rts.Client(), http.MethodPut, rts.URL+"/snapshots/ref",
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference load: %d %v", resp.StatusCode, rbody)
	}
	wantVerdicts, wantSummary := sweepStream(t, rts.Client(), rts.URL+"/snapshots/ref/sweep", body)
	if len(wantVerdicts) == 0 {
		t.Fatal("reference sweep produced no verdicts; test is vacuous")
	}

	// 2-member cluster over one shared cache; the coordinator owns the
	// snapshot.
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	v := waitMembers(t, n1, 2, 2*time.Second)
	name := ownedBy(t, v.Members, "m1", "")

	resp, rbody = doJSON(t, n1.ts.Client(), http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster load: %d %v", resp.StatusCode, rbody)
	}

	// Enter through the non-owner: m2 forwards, m1 plans and executes.
	gotVerdicts, gotSummary := sweepStream(t, n2.ts.Client(), n2.ts.URL+"/snapshots/"+name+"/sweep", body)

	if len(gotVerdicts) != len(wantVerdicts) {
		t.Fatalf("verdict count: cluster %d, single-process %d", len(gotVerdicts), len(wantVerdicts))
	}
	for i := range wantVerdicts {
		if gotVerdicts[i] != wantVerdicts[i] {
			t.Fatalf("verdict %d differs:\ncluster: %s\nsingle:  %s", i, gotVerdicts[i], wantVerdicts[i])
		}
	}
	for _, k := range []string{"enumerated", "classes", "executed", "pruned", "violations", "degraded", "exit_code"} {
		if gotSummary[k] != wantSummary[k] {
			t.Fatalf("summary %q: cluster %v, single-process %v", k, gotSummary[k], wantSummary[k])
		}
	}

	resp, rbody = doJSON(t, n2.ts.Client(), http.MethodPost,
		n2.ts.URL+"/snapshots/"+name+"/sweep?timeout=bogus", nil, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with a malformed timeout through the cluster: %d %v, want 400", resp.StatusCode, rbody)
	}
}

// TestForwardTransportErrorWithoutViewChange: a transport failure toward
// a member the detector still believes is healthy exhausts the bounded
// retry (no view change arrives) and surfaces as 502 — it does not hang
// and does not silently retry forever.
func TestForwardTransportErrorWithoutViewChange(t *testing.T) {
	hb := 30 * time.Millisecond
	cfg := cluster.Config{Heartbeat: hb, SuspectAfter: time.Minute, FailoverWait: 4 * hb}
	n1 := startNode(t, "m1", "", server.Config{}, cfg)
	startNode(t, "m2", n1.ts.URL, server.Config{Seed: 2}, cfg)
	v := waitMembers(t, n1, 2, 2*time.Second)
	name := ownedBy(t, v.Members, "m2", "")

	texts := smallFabric("sm")
	resp, body := doJSON(t, n1.ts.Client(), http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}

	restore := faults.Activate(faults.New().Enable("cluster-forward", "m1", faults.Rule{Kind: faults.Error}))
	defer restore()
	q := "/snapshots/" + name + "/reachability?" + srcQuery(texts)
	resp, body = doJSON(t, n1.ts.Client(), http.MethodGet, n1.ts.URL+q, nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("got %d %v, want 502", resp.StatusCode, body)
	}
	m := n1.n.Metrics()
	if m.ForwardFailed != 1 || m.ForwardRetries == 0 {
		t.Fatalf("retry accounting: %+v", m)
	}
}
