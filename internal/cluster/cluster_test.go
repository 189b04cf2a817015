package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/netgen"
	"repro/internal/server"
)

// smallFabric renders the 10-device Clos fabric the cheap tests use.
func smallFabric(name string) map[string]string {
	gen := netgen.Fabric(netgen.FabricParams{Name: name, Spines: 2, Pods: 2,
		AggPerPod: 2, TorPerPod: 2, HostNetsPerTor: 1, Multipath: true})
	texts := make(map[string]string, len(gen.Devices))
	for _, d := range gen.Devices {
		texts[d.Hostname] = d.Text
	}
	return texts
}

// testNode is one in-process cluster member: a server, its node wrapper,
// and a listener.
type testNode struct {
	id  string
	srv *server.Server
	n   *cluster.Node
	ts  *httptest.Server
}

// startNode builds and starts a member. join == "" makes it the
// coordinator.
func startNode(t *testing.T, id, join string, scfg server.Config, ccfg cluster.Config) *testNode {
	t.Helper()
	nd := newNode(t, id, scfg, ccfg)
	if err := nd.n.Start(context.Background(), nd.ts.URL, join); err != nil {
		t.Fatal(err)
	}
	return nd
}

// newNode builds a member and its listener without starting it.
func newNode(t *testing.T, id string, scfg server.Config, ccfg cluster.Config) *testNode {
	t.Helper()
	if scfg.Seed == 0 {
		scfg.Seed = 1
	}
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.ID = id
	ccfg.Server = srv
	ccfg.Logf = t.Logf
	n, err := cluster.NewNode(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(n.Kill)
	return &testNode{id: id, srv: srv, n: n, ts: ts}
}

// holds reports whether the member's server holds a copy of the snapshot,
// asked of the server directly rather than through the node's routing.
func holds(nd *testNode, name string) bool {
	_, ok := nd.srv.SnapshotSources(name)
	return ok
}

// fastCfg keeps membership churn quick for tests that wait on the
// failure detector.
func fastCfg(hb time.Duration) cluster.Config {
	return cluster.Config{Heartbeat: hb, SuspectAfter: 4 * hb, FailoverWait: 8 * hb}
}

// ownedBy finds a snapshot name the given member owns under the view —
// and, when heir is non-empty, whose ownership falls over to heir once
// owner leaves.
func ownedBy(t *testing.T, members []cluster.Member, owner, heir string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("snap%04d", i)
		if cluster.OwnerOf(members, name).ID != owner {
			continue
		}
		if heir == "" {
			return name
		}
		var survivors []cluster.Member
		for _, m := range members {
			if m.ID != owner {
				survivors = append(survivors, m)
			}
		}
		if cluster.OwnerOf(survivors, name).ID == heir {
			return name
		}
	}
	t.Fatalf("no snapshot name owned by %s (heir %s) in 4096 candidates", owner, heir)
	return ""
}

// doJSON performs a request and decodes the server's JSON envelope.
func doJSON(t *testing.T, c *http.Client, method, url string, body any, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp, m
}

// waitMembers polls a node's view until it has n members (or fails).
func waitMembers(t *testing.T, nd *testNode, n int, within time.Duration) cluster.View {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v := nd.n.View()
		if len(v.Members) == n {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never saw %d members; view %+v", nd.id, n, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func srcQuery(texts map[string]string) string {
	devs := make([]string, 0, len(texts))
	for d := range texts {
		if strings.Contains(d, "tor") {
			devs = append(devs, d)
		}
	}
	sort.Strings(devs)
	return "src=" + devs[0] + "/host1"
}

func TestOwnerOfProperties(t *testing.T) {
	members := []cluster.Member{{ID: "a", Addr: "x"}, {ID: "b", Addr: "y"}, {ID: "c", Addr: "z"}}
	owners := make(map[string]string)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("s%d", i)
		owners[name] = cluster.OwnerOf(members, name).ID
	}
	// Order independence.
	shuffled := []cluster.Member{members[2], members[0], members[1]}
	for name, want := range owners {
		if got := cluster.OwnerOf(shuffled, name).ID; got != want {
			t.Fatalf("member order changed owner of %s: %s vs %s", name, got, want)
		}
	}
	// Minimal disturbance: dropping b moves only b's snapshots.
	survivors := []cluster.Member{members[0], members[2]}
	moved := 0
	for name, was := range owners {
		got := cluster.OwnerOf(survivors, name).ID
		if was == "b" {
			moved++
			if got == "b" {
				t.Fatalf("dead member still owns %s", name)
			}
		} else if got != was {
			t.Fatalf("snapshot %s moved from surviving owner %s to %s", name, was, got)
		}
	}
	if moved == 0 {
		t.Fatal("no snapshot was owned by b; test is vacuous")
	}
	if got := cluster.OwnerOf(nil, "s"); got.ID != "" {
		t.Fatalf("empty view produced owner %+v", got)
	}
}

func TestMembershipJoinDetectorAndReadmission(t *testing.T) {
	hb := 25 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{}, fastCfg(hb))
	n3 := startNode(t, "m3", n1.ts.URL, server.Config{}, fastCfg(hb))

	v := waitMembers(t, n1, 3, 2*time.Second)
	if v.Members[0].Role != cluster.RoleCoordinator || v.Members[1].Role != cluster.RoleMember {
		t.Fatalf("roles: %+v", v.Members)
	}
	// Members learn the view from heartbeat responses.
	waitMembers(t, n2, 3, 2*time.Second)

	// Partition m3: its heartbeats are injected to fail. The detector
	// must reap it within the suspicion window.
	restore := faults.Activate(faults.New().Enable("cluster-heartbeat", "m3", faults.Rule{Kind: faults.Error}))
	epochBefore := n1.n.View().Epoch
	v = waitMembers(t, n1, 2, 2*time.Second)
	if v.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance on failure: %d -> %d", epochBefore, v.Epoch)
	}
	if n1.n.Metrics().MembersFailed != 1 {
		t.Fatalf("metrics: %+v", n1.n.Metrics())
	}
	if m := n3.n.Metrics(); m.HeartbeatsDropped == 0 {
		t.Fatalf("partition never dropped a heartbeat: %+v", m)
	}

	// Heal the partition: the next heartbeat re-admits m3.
	restore()
	waitMembers(t, n1, 3, 2*time.Second)

	// Graceful drain: m3 leaves the view and its server sheds new work.
	// Pick a name m3 believes it owns so the post-drain probe is served
	// locally rather than forwarded to a healthy member.
	owned := ownedBy(t, n3.n.View().Members, "m3", "")
	resp, _ := doJSON(t, n3.ts.Client(), http.MethodPost, n3.ts.URL+"/cluster/drain", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	v = waitMembers(t, n1, 2, 2*time.Second)
	for _, m := range v.Members {
		if m.ID == "m3" {
			t.Fatal("drained member still in view")
		}
	}
	if !n3.srv.Draining() {
		t.Fatal("drained node's server is not draining")
	}
	resp, body := doJSON(t, n3.ts.Client(), http.MethodPut, n3.ts.URL+"/snapshots/"+owned,
		map[string]any{"configs": map[string]string{"r1": "hostname r1\nend\n"}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained member answered %d %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drained 503 without Retry-After")
	}
}

// TestForwardingOwnershipAndManifest: a 2-member cluster must serve a
// snapshot identically through either node — the non-owner forwarding
// with the hop header — and the owner must persist a manifest for
// failover. A pre-forwarded request for an unowned snapshot is a loop
// and dies with 502.
func TestForwardingOwnershipAndManifest(t *testing.T) {
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	v := waitMembers(t, n1, 2, 2*time.Second)

	texts := smallFabric("sm")
	name := ownedBy(t, v.Members, "m2", "")
	c := n1.ts.Client()

	// Load through the non-owner: forwarded to m2, manifest persisted.
	resp, body := doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded load: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Batfish-Forwarded-By"); got != "m1" {
		t.Fatalf("forwarded-by header %q, want m1", got)
	}
	if !holds(n2, name) {
		t.Fatal("owner does not hold the forwarded snapshot")
	}
	if holds(n1, name) {
		t.Fatal("forwarder holds the snapshot it forwarded")
	}
	if m := n2.n.Metrics(); m.ManifestPuts != 1 {
		t.Fatalf("owner manifest puts: %+v", m)
	}

	// Byte-identical answers through both nodes.
	q := "/snapshots/" + name + "/reachability?" + srcQuery(texts)
	_, viaFwd := doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	_, direct := doJSON(t, c, http.MethodGet, n2.ts.URL+q, nil, nil)
	if viaFwd["text"] == "" || viaFwd["text"] != direct["text"] {
		t.Fatalf("forwarded answer differs from direct:\n%v\n%v", viaFwd["text"], direct["text"])
	}
	if m := n1.n.Metrics(); m.Forwarded < 2 {
		t.Fatalf("forwarder metrics: %+v", m)
	}

	// Hop limit 1: m1 does not own the snapshot, and the request claims
	// it was already forwarded — refuse, do not forward again.
	resp, body = doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil,
		map[string]string{"X-Batfish-Forwarded-By": "m9"})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("loop got %d %v, want 502", resp.StatusCode, body)
	}
	if m := n1.n.Metrics(); m.ForwardLoops != 1 {
		t.Fatalf("loop not counted: %+v", m)
	}
}

// TestForwardRelaysShedding is the Retry-After satellite: 429 from the
// owner's full admission queue and 503 from its drain must arrive at the
// client with the owner's Retry-After intact and the forwarder's hop
// header — and without counting as the forwarder's own shedding.
func TestForwardRelaysShedding(t *testing.T) {
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL,
		server.Config{MaxConcurrent: 1, MaxQueue: -1, QueueWait: 7 * time.Second, Seed: 2}, fastCfg(hb))
	v := waitMembers(t, n1, 2, 2*time.Second)

	texts := smallFabric("sm")
	name := ownedBy(t, v.Members, "m2", "")
	c := n1.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}

	// Park one question on the owner so it holds the only execution slot;
	// with a negative queue bound every waiter is shed with 429 +
	// Retry-After = QueueWait.
	restore := faults.Activate(faults.New().Enable("server", "reachability",
		faults.Rule{Kind: faults.Sleep, Sleep: time.Second, Count: 1}))
	defer restore()
	q := "/snapshots/" + name + "/reachability?" + srcQuery(texts)
	parked := make(chan int, 1)
	go func() {
		resp, err := n2.ts.Client().Get(n2.ts.URL + q)
		if err != nil {
			parked <- -1
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is the assertion
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); n2.srv.Metrics().InFlight != 1; {
		if time.Now().After(deadline) {
			t.Fatal("parked question never took the owner's slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body = doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed relay got %d %v, want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q did not survive the hop, want 7", got)
	}
	if got := resp.Header.Get("X-Batfish-Forwarded-By"); got != "m1" {
		t.Fatalf("forwarded-by %q", got)
	}
	if st := <-parked; st != http.StatusOK {
		t.Fatalf("parked question: status %d", st)
	}

	// Drain the owner's server (not the node: it stays in the view, as a
	// member mid-SIGTERM briefly does) — the 503 relays the same way.
	if err := n2.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body = doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain relay got %d %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed 503 lost Retry-After")
	}
	m := n1.n.Metrics()
	if m.Relayed429 != 1 || m.Relayed503 != 1 {
		t.Fatalf("relay counters: %+v", m)
	}
	if sm := n1.srv.Metrics(); sm.Shed429 != 0 || sm.Shed503 != 0 {
		t.Fatalf("forwarder counted relayed shedding as its own: %+v", sm)
	}
}

// TestBreakerUnderForwarding is the breaker satellite: the owner's
// per-snapshot circuit breaker trips on repeated question failures and
// its 503 surfaces through the forwarding member — whose own breaker
// (and trip counter) must stay untouched.
func TestBreakerUnderForwarding(t *testing.T) {
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL,
		server.Config{Retries: -1, BreakerThreshold: 2, BreakerCooldown: time.Minute, Seed: 2}, fastCfg(hb))
	v := waitMembers(t, n1, 2, 2*time.Second)

	texts := smallFabric("sm")
	name := ownedBy(t, v.Members, "m2", "")
	c := n1.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}

	// Every reachability run on the owner panics (contained as degraded).
	// Only the owner executes questions, so the rule bites only there.
	restore := faults.Activate(faults.New().Enable("server", "reachability", faults.Rule{Kind: faults.Panic}))
	defer restore()

	q := "/snapshots/" + name + "/reachability?" + srcQuery(texts)
	for i := 0; i < 2; i++ {
		resp, body = doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
		if resp.StatusCode != http.StatusOK || body["exit_code"] != float64(server.ExitDegraded) {
			t.Fatalf("failure %d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body = doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker got %d %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Batfish-Forwarded-By") != "m1" {
		t.Fatalf("relayed breaker 503 headers: %+v", resp.Header)
	}
	if trips := n2.srv.Metrics().BreakerTrips; trips != 1 {
		t.Fatalf("owner breaker trips = %d, want 1", trips)
	}
	if trips := n1.srv.Metrics().BreakerTrips; trips != 0 {
		t.Fatalf("forwarder's breaker tripped (%d) for the owner's failures", trips)
	}
	if m := n1.n.Metrics(); m.Relayed503 == 0 {
		t.Fatalf("breaker 503 not counted as relay: %+v", m)
	}
}

// TestDrainHandsOffOwnershipAndWarmStart: draining the owner moves its
// snapshot to the survivor, which rehydrates it from the shared-cache
// manifest and answers byte-identically — warm-started from the dead
// member's cached artifacts.
func TestDrainHandsOffOwnershipAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	v := waitMembers(t, n1, 2, 2*time.Second)

	texts := smallFabric("sm")
	name := ownedBy(t, v.Members, "m2", "m1")
	c := n1.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}
	q := "/snapshots/" + name + "/reachability?" + srcQuery(texts)
	_, before := doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	if before["text"] == "" {
		t.Fatal("pre-drain answer empty")
	}

	resp, _ = doJSON(t, n2.ts.Client(), http.MethodPost, n2.ts.URL+"/cluster/drain", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	waitMembers(t, n1, 1, 2*time.Second)

	_, after := doJSON(t, c, http.MethodGet, n1.ts.URL+q, nil, nil)
	if after["text"] != before["text"] {
		t.Fatalf("failover answer differs:\n--- before ---\n%v\n--- after ---\n%v",
			before["text"], after["text"])
	}
	if m := n1.n.Metrics(); m.Rehydrations != 1 {
		t.Fatalf("heir did not rehydrate: %+v", m)
	}
	if d := n1.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("heir rebuilt cold (no shared-cache hits): %+v", d)
	}
}

// rawGet returns a GET's status and body bytes.
func rawGet(t *testing.T, c *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestEditAsForeignNameLeavesNoStaleCopy: an edit is served by the owner
// of its base, but its "as" name may belong to another member. The
// editing member keeps the new snapshot, so comparing the base against it
// answers exactly as a standalone server does. That member then serves
// the new name from its manifest, and a delete there must be final: the
// editing member's copy answers neither a compare nor, once ownership of
// the name moves to it, a request of its own.
func TestEditAsForeignNameLeavesNoStaleCopy(t *testing.T) {
	texts := smallFabric("ed")
	hosts := make([]string, 0, len(texts))
	for h := range texts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	edit := map[string]string{hosts[0]: ""}

	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	n3 := startNode(t, "m3", n1.ts.URL, server.Config{CacheDir: dir, Seed: 3}, fastCfg(hb))
	v := waitMembers(t, n1, 3, 2*time.Second)

	// A lives on m2; B on m3, falling to m2 once m3 leaves; C on m3.
	a := ownedBy(t, v.Members, "m2", "")
	b := ownedBy(t, v.Members, "m3", "m2")
	c := ownedBy(t, v.Members, "m3", "m1")

	ref, err := server.New(server.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	hc := rts.Client()
	for _, base := range []string{rts.URL, n1.ts.URL} {
		if resp, body := doJSON(t, hc, http.MethodPut, base+"/snapshots/"+a,
			map[string]any{"configs": texts}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: %d %v", a, resp.StatusCode, body)
		}
		for _, as := range []string{b, c} {
			if resp, body := doJSON(t, hc, http.MethodPost, base+"/snapshots/"+a+"/edit",
				map[string]any{"as": as, "changes": edit}, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("edit %s as %s: %d %v", a, as, resp.StatusCode, body)
			}
		}
	}
	cl := n1.ts.Client()
	wantStatus, want := rawGet(t, rts.Client(), rts.URL+"/snapshots/"+a+"/compare?with="+b)
	gotStatus, got := rawGet(t, cl, n1.ts.URL+"/snapshots/"+a+"/compare?with="+b)
	if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("compare %s with %s through a non-owner: %d %s\nstandalone: %d %s",
			a, b, gotStatus, got, wantStatus, want)
	}
	if resp, body := doJSON(t, cl, http.MethodGet, n1.ts.URL+"/snapshots/"+b+"/diagnostics",
		nil, nil); resp.StatusCode != http.StatusOK || resp.Header.Get(cluster.HopHeader) != "m1" {
		t.Fatalf("edited %s not served by its owner: %d %v", b, resp.StatusCode, body)
	}
	if !holds(n3, b) {
		t.Fatalf("owner m3 did not rehydrate %s from its manifest", b)
	}
	for _, name := range []string{b, c} {
		if resp, body := doJSON(t, cl, http.MethodDelete, n1.ts.URL+"/snapshots/"+name,
			nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %s: %d %v", name, resp.StatusCode, body)
		}
	}

	// m2 still holds C, but a compare against it answers as for any
	// deleted snapshot.
	if !holds(n2, c) {
		t.Fatalf("m2 no longer holds its copy of %s; the check below is vacuous", c)
	}
	if resp, body := doJSON(t, cl, http.MethodGet, n1.ts.URL+"/snapshots/"+a+"/compare?with="+c,
		nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compare with deleted %s answers %d: %v", c, resp.StatusCode, body)
	}

	// m3 leaves; B's ownership moves to m2. The delete must hold.
	if resp, _ := doJSON(t, n3.ts.Client(), http.MethodPost, n3.ts.URL+"/cluster/drain",
		nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain m3: %d", resp.StatusCode)
	}
	waitMembers(t, n1, 2, 2*time.Second)
	if !holds(n2, b) {
		t.Fatalf("m2 no longer holds its copy of %s; the check below is vacuous", b)
	}
	if resp, body := doJSON(t, cl, http.MethodGet, n1.ts.URL+"/snapshots/"+b+"/diagnostics",
		nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted %s answers %d after m3 left: %v", b, resp.StatusCode, body)
	}
	_, list := doJSON(t, n2.ts.Client(), http.MethodGet, n2.ts.URL+"/snapshots", nil, nil)
	if names, _ := list["snapshots"].([]any); len(names) != 1 || names[0] != a {
		t.Fatalf("m2 lists %v, want only %s", list["snapshots"], a)
	}

	// Loading B again writes its name record: the reloaded copy answers
	// without being dropped and rehydrated.
	if resp, body := doJSON(t, cl, http.MethodPut, n1.ts.URL+"/snapshots/"+b,
		map[string]any{"configs": texts}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload %s: %d %v", b, resp.StatusCode, body)
	}
	before := n2.n.Metrics().Rehydrations
	if resp, body := doJSON(t, cl, http.MethodGet, n1.ts.URL+"/snapshots/"+b+"/diagnostics",
		nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reloaded %s answers %d: %v", b, resp.StatusCode, body)
	}
	if after := n2.n.Metrics().Rehydrations; after != before {
		t.Fatalf("reloaded %s was dropped and rehydrated (%d → %d rehydrations)", b, before, after)
	}
}
