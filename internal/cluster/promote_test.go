package cluster

// Internal failover tests: the detector, the promotion race, and
// demotion are driven by a fake clock shared between the node and its
// disk cache, so lease expiry and suspicion windows advance by explicit
// Advance calls — no real sleeps, no timing flake.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diskcache"
	"repro/internal/faults"
	"repro/internal/server"
)

// fakeClock is a mutable time source implementing Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// beat POSTs a heartbeat body straight into the registration handler.
func beat(t *testing.T, n *Node, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", strings.NewReader(body))
	rec := httptest.NewRecorder()
	n.handleHeartbeat(rec, req)
	return rec
}

// TestDetectorEvictsOnFakeClock drives the failure detector across its
// exact suspicion boundary: a member silent for precisely SuspectAfter
// survives, one tick past it is evicted with an epoch bump. It also
// checks the epoch-carry rule — a heartbeat from a member that saw a
// higher epoch under a previous coordinator jumps this view strictly
// past it.
func TestDetectorEvictsOnFakeClock(t *testing.T) {
	fc := newFakeClock()
	srv, err := server.New(server.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: "m1", Server: srv, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.self = Member{ID: "m1", Addr: "http://m1", Role: RoleCoordinator}
	n.coordinator = true
	n.view = View{Epoch: 1, Members: []Member{n.self}}
	n.lastSeen["m1"] = fc.Now()
	n.mu.Unlock()

	if rec := beat(t, n, `{"id":"m2","addr":"http://m2"}`); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat admission: status %d", rec.Code)
	}
	if got := n.View().Epoch; got != 2 {
		t.Fatalf("epoch after admission = %d, want 2", got)
	}

	// Exactly at the window: still in.
	fc.Advance(n.cfg.SuspectAfter)
	n.reapDead()
	if v := n.View(); len(v.Members) != 2 {
		t.Fatalf("member evicted at exactly SuspectAfter: %+v", v)
	}

	// One tick past: out, epoch bumped.
	fc.Advance(time.Millisecond)
	n.reapDead()
	v := n.View()
	if len(v.Members) != 1 || v.Members[0].ID != "m1" {
		t.Fatalf("eviction failed: %+v", v)
	}
	if v.Epoch != 3 {
		t.Fatalf("epoch after eviction = %d, want 3", v.Epoch)
	}
	if got := n.Metrics().MembersFailed; got != 1 {
		t.Fatalf("members_failed = %d, want 1", got)
	}

	// Epoch carry: a survivor of a dead coordinator heartbeats with the
	// higher epoch it saw there; this coordinator must jump strictly past
	// it (plus the membership-change bump for the admission itself).
	if rec := beat(t, n, `{"id":"m3","addr":"http://m3","epoch":50}`); rec.Code != http.StatusOK {
		t.Fatalf("carried-epoch heartbeat: status %d", rec.Code)
	}
	if got := n.View().Epoch; got <= 50 {
		t.Fatalf("epoch %d not strictly past the carried 50", got)
	}
}

// TestPromoteDemoteLifecycleDeterministic walks one node through the
// whole coordinator lifecycle on a fake clock: as a member it must not
// steal a live (unexpired) lease; once the dead coordinator's grant
// lapses it wins the race, promotes with a strictly higher epoch, and
// publishes itself in the record; renewal inside the TTL succeeds; and
// when a rival steals the expired lease, the next renewal demotes the
// node, which follows the rival's record.
func TestPromoteDemoteLifecycleDeterministic(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	srv, err := server.New(server.Config{Seed: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Disk().SetClock(fc.Now)
	n, err := NewNode(Config{ID: "m2", Server: srv, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}

	// The "dead" coordinator m1: a second cache handle on the same
	// directory holds the lease and record, then never renews.
	other, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other.SetClock(fc.Now)
	if _, err := other.AcquireLease(coordLeaseName, "m1", n.cfg.SuspectAfter); err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(coordRecord{ID: "m1", Addr: "http://m1", Epoch: 7})
	if err := other.WriteRecord(coordRecordName, buf); err != nil {
		t.Fatal(err)
	}

	n.mu.Lock()
	n.self = Member{ID: "m2", Addr: "http://m2", Role: RoleMember}
	n.coordAddr = "http://m1"
	n.view = View{Epoch: 7, Members: []Member{
		{ID: "m1", Addr: "http://m1", Role: RoleCoordinator},
		{ID: "m2", Addr: "http://m2", Role: RoleMember},
	}}
	n.lastContact = fc.Now()
	n.mu.Unlock()

	// Inside the TTL the dead coordinator's grant still holds: no steal.
	n.attemptFailover()
	if m := n.Metrics(); m.Role != RoleMember || m.Promotions != 0 {
		t.Fatalf("stole a live lease: %+v", m)
	}

	// Past the TTL the orphaned grant is reclaimable: promote.
	fc.Advance(n.cfg.SuspectAfter + time.Second)
	n.attemptFailover()
	m := n.Metrics()
	if m.Role != RoleCoordinator || !m.LeaseHeld || m.Promotions != 1 {
		t.Fatalf("promotion failed: %+v", m)
	}
	if m.Epoch != 8 {
		t.Fatalf("promoted epoch = %d, want 8 (strictly past the dead coordinator's 7)", m.Epoch)
	}
	v := n.View()
	if len(v.Members) != 1 || v.Members[0].ID != "m2" || v.Members[0].Role != RoleCoordinator {
		t.Fatalf("promoted view must drop the dead coordinator and lead itself: %+v", v)
	}
	if rec, ok := n.readCoordRecord(); !ok || rec.ID != "m2" || rec.Epoch != 8 {
		t.Fatalf("record not republished by the winner: %+v (ok=%v)", rec, ok)
	}

	// Renewal inside the TTL keeps the coordinator seated.
	fc.Advance(n.cfg.SuspectAfter / 2)
	n.maintainLease()
	if m := n.Metrics(); m.Role != RoleCoordinator || m.Demotions != 0 {
		t.Fatalf("renewal inside the TTL demoted: %+v", m)
	}

	// A rival steals the lease after this coordinator stalls past the
	// TTL; the next renewal observes the loss and demotes, following the
	// rival's record.
	fc.Advance(n.cfg.SuspectAfter + time.Second)
	if _, err := other.AcquireLease(coordLeaseName, "m3", time.Hour); err != nil {
		t.Fatalf("rival steal of the expired lease: %v", err)
	}
	rbuf, _ := json.Marshal(coordRecord{ID: "m3", Addr: "http://m3", Epoch: 9})
	if err := other.WriteRecord(coordRecordName, rbuf); err != nil {
		t.Fatal(err)
	}
	n.maintainLease()
	m = n.Metrics()
	if m.Role != RoleMember || m.LeaseHeld || m.Demotions != 1 {
		t.Fatalf("lost lease did not demote: %+v", m)
	}
	n.mu.Lock()
	gotAddr := n.coordAddr
	n.mu.Unlock()
	if gotAddr != "http://m3" {
		t.Fatalf("demoted node follows %q, want the rival's record http://m3", gotAddr)
	}
}

// TestFailoverFaultStages exercises the chaos stall point: a
// "cluster-promote" fault keeps a candidate out of the lease race (so
// chaos tests can pick the winner). The stall is counted and does not
// advance state.
func TestFailoverFaultStages(t *testing.T) {
	fc := newFakeClock()
	dir := t.TempDir()
	srv, err := server.New(server.Config{Seed: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Disk().SetClock(fc.Now)
	n, err := NewNode(Config{ID: "m2", Server: srv, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.self = Member{ID: "m2", Addr: "http://m2", Role: RoleMember}
	n.coordAddr = "http://m1"
	n.view = View{Epoch: 3, Members: []Member{
		{ID: "m1", Addr: "http://m1", Role: RoleCoordinator},
		{ID: "m2", Addr: "http://m2", Role: RoleMember},
	}}
	n.mu.Unlock()

	restore := faults.Activate(faults.New().
		Enable("cluster-promote", "m2", faults.Rule{Kind: faults.Error, Count: 1}))
	defer restore()

	// The stalled candidate sits out the race even with the lease free.
	n.attemptFailover()
	if m := n.Metrics(); m.PromoteStalled != 1 || m.Promotions != 0 || m.Role != RoleMember {
		t.Fatalf("stalled candidate still raced: %+v", m)
	}
	// Once the fault is spent, the same call wins.
	n.attemptFailover()
	if m := n.Metrics(); m.Role != RoleCoordinator || m.Promotions != 1 {
		t.Fatalf("post-stall promotion failed: %+v", m)
	}
}
