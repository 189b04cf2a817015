package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"
)

// equivSeeds are the generated sequences TestClusterMatchesStandalone
// replays. Under the tombstone scheme the name records replaced, every one
// of them failed. Seed 1 hit a compare whose "with" lives on another
// member: it was never installed on the member serving the compare, which
// answered 404 for a snapshot the standalone server holds. With that
// alone mended, seeds 16 and 23 hit an owner serving its old copy after
// "edit A as B" rewrote B on owner(A), and seed 24 hit the editing
// member's copy of B answering a compare after B was re-loaded on its
// owner (op 16 edits snap0003 as snap0006; op 24 re-loads snap0006; op
// 25 compares against it).
var equivSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 16, 23, 24}

// TestClusterMatchesStandalone checks "clustered ≡ single process" on
// generated inputs: seeded random sequences of loads, edits (some as an
// existing name), deletes, compares and questions — a fifth of the loads
// and edits rejected with a bad ?timeout= — go through random members of a
// 3-member cluster sharing one cache directory, with one member drained
// part-way, and every response's status and body must equal a standalone
// server's fed the same sequence.
func TestClusterMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a 3-member cluster per seed")
	}
	for _, seed := range equivSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runEquivSeed(t, seed, 30) })
	}
}

func runEquivSeed(t *testing.T, seed int64, ops int) {
	sc := newSharedCluster(t)
	rng := rand.New(rand.NewSource(seed))
	base := smallFabric("eq")
	hosts := make([]string, 0, len(base))
	for h := range base {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	// Two load variants: the fabric, and the fabric without its first
	// device. Edits delete one of three devices.
	short := make(map[string]string, len(base))
	for h, text := range base {
		if h != hosts[0] {
			short[h] = text
		}
	}
	variants := []map[string]string{base, short}
	v := sc.nodes[0].n.View()
	names := []string{
		ownedBy(t, v.Members, "m1", ""),
		ownedBy(t, v.Members, "m2", "m1"),
		ownedBy(t, v.Members, "m3", "m2"),
		ownedBy(t, v.Members, "m2", "m3"),
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	reject := func() string {
		if rng.Intn(5) == 0 {
			return "?timeout=bad"
		}
		return ""
	}
	live := sc.nodes
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			gone := 1 + rng.Intn(2)
			t.Logf("op %d: drain %s", i, sc.nodes[gone].id)
			if err := sc.nodes[gone].n.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			live = []*testNode{sc.nodes[0], sc.nodes[3-gone]}
			for _, nd := range live {
				waitMembers(t, nd, 2, 2*time.Second)
			}
		}
		nd := live[rng.Intn(len(live))]
		name := pick(names)
		var method, path, note string
		var body any
		switch op := rng.Intn(10); {
		case op < 3:
			method, path = http.MethodPut, "/snapshots/"+name+reject()
			body = map[string]any{"configs": variants[rng.Intn(len(variants))]}
		case op < 5:
			as := pick(names)
			method, path, note = http.MethodPost, "/snapshots/"+name+"/edit"+reject(), " as "+as
			body = map[string]any{"as": as, "changes": map[string]string{hosts[1+rng.Intn(3)]: ""}}
		case op < 6:
			method, path = http.MethodDelete, "/snapshots/"+name
		case op < 8:
			method, path = http.MethodGet, "/snapshots/"+name+"/compare?with="+pick(names)
		case op < 9:
			method, path = http.MethodGet, "/snapshots/"+name+"/reachability?"+srcQuery(base)
		default:
			method, path = http.MethodGet, "/snapshots/"+name+"/diagnostics"
		}
		st := sc.both(t, nd, method, path, body)
		t.Logf("op %d: %s %s%s via %s: %d", i, method, path, note, nd.id, st)
	}
}
