package cluster_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/diskcache"
	"repro/internal/server"
)

// sharedCluster is a 3-member cluster over one cache directory beside a
// standalone server: the reference every cluster response must equal.
type sharedCluster struct {
	nodes []*testNode // m1 (coordinator), m2, m3
	ref   *httptest.Server
}

func newSharedCluster(t *testing.T) *sharedCluster {
	t.Helper()
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	n2 := startNode(t, "m2", n1.ts.URL, server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	n3 := startNode(t, "m3", n1.ts.URL, server.Config{CacheDir: dir, Seed: 3}, fastCfg(hb))
	for _, nd := range []*testNode{n1, n2, n3} {
		waitMembers(t, nd, 3, 2*time.Second)
	}
	ref, err := server.New(server.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref.Handler())
	t.Cleanup(rts.Close)
	return &sharedCluster{nodes: []*testNode{n1, n2, n3}, ref: rts}
}

// rawDo sends one request and returns its status and body bytes.
func rawDo(t *testing.T, c *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// both sends the request to the standalone server and through member nd,
// fails unless status and body are byte-identical, and returns the status.
func (sc *sharedCluster) both(t *testing.T, nd *testNode, method, path string, body any) int {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus, want := rawDo(t, sc.ref.Client(), method, sc.ref.URL+path, raw)
	gotStatus, got := rawDo(t, nd.ts.Client(), method, nd.ts.URL+path, raw)
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("%s %s through %s: %d %s\nstandalone: %d %s", method, path, nd.id, gotStatus, got, wantStatus, want)
	}
	return wantStatus
}

// editSetup loads A (owned by m2) from the "ed" fabric and B (owned by m3)
// from the "xx" fabric, whose hostnames the "ed" questions do not know.
func editSetup(t *testing.T, sc *sharedCluster) (a, b string, texts map[string]string, edit map[string]string) {
	t.Helper()
	texts = smallFabric("ed")
	hosts := make([]string, 0, len(texts))
	for h := range texts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	edit = map[string]string{hosts[0]: ""}
	v := sc.nodes[0].n.View()
	a = ownedBy(t, v.Members, "m2", "")
	b = ownedBy(t, v.Members, "m3", "")
	n1 := sc.nodes[0]
	if st := sc.both(t, n1, http.MethodPut, "/snapshots/"+b, map[string]any{"configs": smallFabric("xx")}); st != http.StatusOK {
		t.Fatalf("load %s: %d", b, st)
	}
	if st := sc.both(t, n1, http.MethodPut, "/snapshots/"+a, map[string]any{"configs": texts}); st != http.StatusOK {
		t.Fatalf("load %s: %d", a, st)
	}
	return a, b, texts, edit
}

// TestEditAsLiveNameUpdatesOwnersCopy: "edit A as B" runs on owner(A),
// but B already lives on owner(B). Owner(B) must answer B's questions
// from the edited sources, exactly as a standalone server does.
func TestEditAsLiveNameUpdatesOwnersCopy(t *testing.T) {
	sc := newSharedCluster(t)
	a, b, texts, edit := editSetup(t, sc)
	n1 := sc.nodes[0]
	if st := sc.both(t, n1, http.MethodPost, "/snapshots/"+a+"/edit",
		map[string]any{"as": b, "changes": edit}); st != http.StatusOK {
		t.Fatalf("edit %s as %s: %d", a, b, st)
	}
	if !holds(sc.nodes[2], b) {
		t.Fatalf("owner m3 no longer holds %s; the check below is vacuous", b)
	}
	for _, nd := range sc.nodes {
		sc.both(t, nd, http.MethodGet, "/snapshots/"+b+"/reachability?"+srcQuery(texts), nil)
	}
}

// TestReloadRetiresEditorsStaleCopy: after "edit A as B" the editing
// member (owner(A)) holds a copy of B; once B is re-loaded with other
// configs on its owner, that copy must not answer. A compare of A with B
// through any member equals the standalone one.
func TestReloadRetiresEditorsStaleCopy(t *testing.T) {
	sc := newSharedCluster(t)
	a, b, texts, edit := editSetup(t, sc)
	n1 := sc.nodes[0]
	if st := sc.both(t, n1, http.MethodPost, "/snapshots/"+a+"/edit",
		map[string]any{"as": b, "changes": edit}); st != http.StatusOK {
		t.Fatalf("edit %s as %s: %d", a, b, st)
	}
	if st := sc.both(t, n1, http.MethodPut, "/snapshots/"+b, map[string]any{"configs": smallFabric("xx")}); st != http.StatusOK {
		t.Fatalf("reload %s: %d", b, st)
	}
	if !holds(sc.nodes[1], b) {
		t.Fatalf("editing member m2 no longer holds %s; the check below is vacuous", b)
	}
	for _, nd := range sc.nodes {
		sc.both(t, nd, http.MethodGet, "/snapshots/"+a+"/compare?with="+b, nil)
	}
	sc.both(t, n1, http.MethodGet, "/snapshots/"+b+"/reachability?"+srcQuery(texts), nil)
}

// TestRejectedWriteKeepsNameDeleted: a load or edit of a deleted name
// that the server rejects (a bad ?timeout=, 400) re-creates nothing, so
// the editing member's stale copy stays deleted: every member answers 404
// for the name and for a compare against it.
func TestRejectedWriteKeepsNameDeleted(t *testing.T) {
	sc := newSharedCluster(t)
	a, b, _, edit := editSetup(t, sc)
	n1 := sc.nodes[0]
	if st := sc.both(t, n1, http.MethodPost, "/snapshots/"+a+"/edit",
		map[string]any{"as": b, "changes": edit}); st != http.StatusOK {
		t.Fatalf("edit %s as %s: %d", a, b, st)
	}
	if st := sc.both(t, n1, http.MethodDelete, "/snapshots/"+b, nil); st != http.StatusOK {
		t.Fatalf("delete %s: %d", b, st)
	}
	if st := sc.both(t, n1, http.MethodPut, "/snapshots/"+b+"?timeout=bad",
		map[string]any{"configs": smallFabric("xx")}); st != http.StatusBadRequest {
		t.Fatalf("rejected load of %s: %d", b, st)
	}
	if st := sc.both(t, n1, http.MethodPost, "/snapshots/"+a+"/edit?timeout=bad",
		map[string]any{"as": b, "changes": edit}); st != http.StatusBadRequest {
		t.Fatalf("rejected edit as %s: %d", b, st)
	}
	if !holds(sc.nodes[1], b) {
		t.Fatalf("editing member m2 no longer holds %s; the check below is vacuous", b)
	}
	for _, nd := range sc.nodes {
		for _, path := range []string{"/snapshots/" + a + "/compare?with=" + b, "/snapshots/" + b + "/diagnostics"} {
			if st := sc.both(t, nd, http.MethodGet, path, nil); st != http.StatusNotFound {
				t.Fatalf("GET %s through %s: %d, want 404", path, nd.id, st)
			}
		}
	}
}

// TestCoordinatorRecordOutlivesArtifactChurn: the coordinator record is
// name-addressed, so no volume of artifact writes may evict it. After
// more than MaxBytes of entries go through another handle on the shared
// directory, a member whose join target is dead still finds the
// coordinator through the record, and passes the shared-cache check.
func TestCoordinatorRecordOutlivesArtifactChurn(t *testing.T) {
	dir := t.TempDir()
	hb := 50 * time.Millisecond
	n1 := startNode(t, "m1", "", server.Config{CacheDir: dir}, fastCfg(hb))
	const maxBytes = 4 << 10
	churn, err := diskcache.Open(dir, diskcache.Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 2*maxBytes/len(payload); i++ {
		churn.Put([sha256.Size]byte{byte(i + 1)}, payload)
	}
	if st := churn.Stats(); st.Evictions == 0 {
		t.Fatalf("artifact writes never pressed the bound: %+v", st)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	n2 := newNode(t, "m2", server.Config{CacheDir: dir, Seed: 2}, fastCfg(hb))
	if err := n2.n.Start(context.Background(), n2.ts.URL, dead.URL); err != nil {
		t.Fatalf("join through the coordinator record: %v", err)
	}
	waitMembers(t, n1, 2, 2*time.Second)
	waitMembers(t, n2, 2, 2*time.Second)
}
