package cluster_test

// End-to-end coordinator failover over real HTTP listeners. These run in
// tier-1 (no race tag) on the small fabric with test-fast heartbeats; the
// 204-device versions live in the chaos suite.

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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

// TestSplitCacheJoinRefused: members that open their own cache
// directories cannot share the coordinator lease — with one directory per
// member, killing the coordinator would leave every survivor
// coordinating a 1-member view of its own. Start must refuse such a
// member with an error naming both sides, and the refused member must not
// linger in the coordinator's view. A private directory whose old record
// names the coordinator's ID at another address is refused too.
func TestSplitCacheJoinRefused(t *testing.T) {
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: t.TempDir()}, fastCfg(hb))
	stale := t.TempDir()
	old := startNode(t, "m1", "", server.Config{CacheDir: stale}, fastCfg(hb))
	old.n.Kill()
	old.ts.Close()
	dirs := map[string]string{"m2": t.TempDir(), "m3": t.TempDir(), "m4": stale}
	for i, id := range []string{"m2", "m3", "m4"} {
		nd := newNode(t, id, server.Config{CacheDir: dirs[id], Seed: int64(i + 2)}, fastCfg(hb))
		err := nd.n.Start(context.Background(), nd.ts.URL, n1.ts.URL)
		if err == nil {
			t.Fatalf("%s joined m1 with a cache directory of its own", id)
		}
		for _, want := range []string{id, "coordinator m1 at " + n1.ts.URL, "shared cache directory"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal %q does not mention %q", err, want)
			}
		}
		if id == "m4" && !strings.Contains(err.Error(), "names coordinator m1 at "+old.ts.URL) {
			t.Fatalf("refusal %q does not name the stale record", err)
		}
	}
	if v := n1.n.View(); len(v.Members) != 1 {
		t.Fatalf("refused members left in the coordinator's view: %+v", v)
	}
}
