package cluster_test

// End-to-end coordinator failover and heir replication over real HTTP
// listeners. These run in tier-1 (no race tag) on the small fabric with
// test-fast heartbeats; the 204-device versions live in the chaos suite.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

// TestCoordinatorFailoverEndToEnd kills the coordinator of a 3-member
// cluster. Exactly one survivor must win the lease race and promote with
// a strictly higher epoch, the other must converge on it through the
// shared record, questions for the dead coordinator's snapshot must keep
// answering (the heir rehydrates warm), and a latecomer pointed at the
// dead coordinator's address must still join via the record.
func TestCoordinatorFailoverEndToEnd(t *testing.T) {
	texts := smallFabric("cf")
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	n3 := startNode(t, "m3", n1.ts.URL, server.Config{CacheDir: dir, Seed: 3}, fastCfg(hb))
	v := waitMembers(t, n1, 3, 2*time.Second)
	epoch0 := v.Epoch

	// A snapshot owned by the coordinator itself, falling over to m3.
	name := ownedBy(t, v.Members, "m1", "m3")
	c := n2.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n2.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}
	q := "/reachability?" + srcQuery(texts)
	_, warm := doJSON(t, c, http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	want, _ := warm["text"].(string)
	if want == "" {
		t.Fatalf("warm answer empty: %v", warm)
	}

	// Kill the coordinator: sever connections, stop its loops.
	n1.ts.Listener.Close()
	n1.ts.CloseClientConnections()
	n1.n.Kill()

	// One survivor promotes; both converge on the view {m2, m3}.
	coord, follower := awaitSurvivorsHealed(n2, n3, time.Now().Add(5*time.Second), 5*time.Millisecond)
	if coord == nil {
		t.Fatalf("no survivor promoted: m2=%+v m3=%+v", n2.n.Metrics(), n3.n.Metrics())
	}
	cm := coord.n.Metrics()
	if cm.Epoch <= epoch0 {
		t.Fatalf("epoch did not advance across failover: %d <= %d", cm.Epoch, epoch0)
	}
	if !cm.LeaseHeld || cm.Promotions == 0 {
		t.Fatalf("new coordinator without lease or promotion: %+v", cm)
	}
	if fm := follower.n.Metrics(); fm.Role != cluster.RoleMember || fm.LeaseHeld {
		t.Fatalf("split brain: follower %s claims coordination: %+v", follower.id, fm)
	}
	if fm := follower.n.Metrics(); fm.CoordAdoptions == 0 {
		t.Fatalf("follower never adopted the successor from the record: %+v", fm)
	}
	for _, m := range coord.n.View().Members {
		if m.ID == "m1" {
			t.Fatalf("dead coordinator still in the view: %+v", coord.n.View())
		}
	}

	// The dead coordinator's snapshot keeps answering identically: the
	// heir rehydrates it warm from the shared cache.
	_, after := doJSON(t, follower.ts.Client(), http.MethodGet,
		follower.ts.URL+"/snapshots/"+name+q, nil, nil)
	if after["text"] != want {
		t.Fatalf("post-failover answer differs:\n--- got ---\n%v\n--- want ---\n%s", after["text"], want)
	}
	if r := n3.n.Metrics().Rehydrations; r != 1 {
		t.Fatalf("heir rehydrations = %d, want 1", r)
	}

	// A latecomer still pointed at the dead coordinator joins through the
	// record fallback in Start.
	n4 := startNode(t, "m4", n1.ts.URL, server.Config{CacheDir: dir, Seed: 4}, fastCfg(hb))
	waitMembers(t, n4, 3, 2*time.Second)
}

// awaitSurvivorsHealed polls until one of a and b coordinates and both
// views hold exactly {a, b}, returning the coordinator and the follower,
// or nils once deadline passes. Member counts are not enough: a follower
// that never heartbeated still holds its join-time view, which can have
// two members and still list the dead coordinator.
func awaitSurvivorsHealed(a, b *testNode, deadline time.Time, poll time.Duration) (coord, follower *testNode) {
	holdsExactly := func(n *testNode) bool {
		ms := n.n.View().Members
		return len(ms) == 2 && (ms[0].ID == a.id && ms[1].ID == b.id || ms[0].ID == b.id && ms[1].ID == a.id)
	}
	for time.Now().Before(deadline) {
		if holdsExactly(a) && holdsExactly(b) {
			switch {
			case a.n.Metrics().Role == cluster.RoleCoordinator:
				return a, b
			case b.n.Metrics().Role == cluster.RoleCoordinator:
				return b, a
			}
		}
		time.Sleep(poll)
	}
	return nil, nil
}

// TestHeirReplicationAcrossSplitCaches runs a 2-member cluster whose
// members do NOT share a cache directory, so the anti-entropy replicator
// must move manifest and artifact bytes over /cluster/artifact. Once the
// heir reports zero lag, the owner (also the coordinator) is killed with
// a parse-stage fault armed: the survivor must promote itself and answer
// the dead owner's question from its own pre-replicated cache — zero
// cold parses.
func TestHeirReplicationAcrossSplitCaches(t *testing.T) {
	texts := smallFabric("rp")
	hb := 50 * time.Millisecond
	ccfg := fastCfg(hb)
	ccfg.ReplicateEvery = hb // anti-entropy fast enough to observe
	n1 := startNode(t, "m1", "", server.Config{CacheDir: t.TempDir()}, ccfg)
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: t.TempDir(), Seed: 2}, ccfg)
	v := waitMembers(t, n1, 2, 2*time.Second)
	name := ownedBy(t, v.Members, "m1", "m2")

	c := n1.ts.Client()
	resp, body := doJSON(t, c, http.MethodPut, n1.ts.URL+"/snapshots/"+name,
		map[string]any{"configs": texts}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %v", resp.StatusCode, body)
	}
	q := "/reachability?" + srcQuery(texts)
	_, warm := doJSON(t, c, http.MethodGet, n1.ts.URL+"/snapshots/"+name+q, nil, nil)
	want, _ := warm["text"].(string)
	if want == "" {
		t.Fatalf("warm answer empty: %v", warm)
	}

	// Wait for the heir to be fully warm: every artifact key fetched.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := n2.n.Metrics().Replication
		if rs.HeirSnapshots >= 1 && rs.Keys > 0 && rs.Lag == 0 && rs.Fetched > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heir never warmed: %+v", rs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Replication lag is operator-visible on /cluster/members.
	_, mb := doJSON(t, c, http.MethodGet, n2.ts.URL+"/cluster/members", nil, nil)
	if _, ok := mb["replication"]; !ok {
		t.Fatalf("/cluster/members missing replication status: %v", mb)
	}

	// Any cold parse from here on fails the test.
	inj := faults.New().Enable("parse", "*", faults.Rule{Kind: faults.Panic})
	restore := faults.Activate(inj)
	defer restore()

	n1.ts.Listener.Close()
	n1.ts.CloseClientConnections()
	n1.n.Kill()

	// The sole survivor promotes itself (its own cache anchors its lease).
	deadline = time.Now().Add(5 * time.Second)
	for {
		m := n2.n.Metrics()
		if m.Role == cluster.RoleCoordinator && m.Members == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor never promoted: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead owner's snapshot answers from the heir's own cache: the
	// manifest and every artifact were replicated before the crash.
	_, after := doJSON(t, n2.ts.Client(), http.MethodGet, n2.ts.URL+"/snapshots/"+name+q, nil, nil)
	if after["text"] != want {
		t.Fatalf("post-failover answer differs:\n--- got ---\n%v\n--- want ---\n%s", after["text"], want)
	}
	m := n2.n.Metrics()
	if m.Rehydrations != 1 {
		t.Fatalf("rehydrations = %d, want 1", m.Rehydrations)
	}
	if d := n2.srv.Metrics().Disk; d.Hits == 0 {
		t.Fatalf("heir rebuilt cold — no local cache hits: %+v", d)
	}
	for k, hits := range inj.Hits() {
		if strings.HasPrefix(k, "parse/") {
			t.Fatalf("cold parse reached the armed fault: %s fired %d times", k, hits)
		}
	}
}
