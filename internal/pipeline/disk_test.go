package pipeline

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/diskcache"
)

func openDisk(t *testing.T, dir string) *diskcache.Cache {
	t.Helper()
	d, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatalf("diskcache.Open: %v", err)
	}
	return d
}

// TestWarmRestartServesFromDisk is the core warm-restart property at the
// pipeline level: a second pipeline (fresh memory store — "new process")
// sharing only the cache directory serves parse and data-plane stages
// from disk, and the rehydrated result is indistinguishable from the
// computed one.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	texts := testTexts()

	p1 := New(Config{Disk: openDisk(t, dir)})
	net1, _, keys1 := p1.Parse(texts)
	dp1, dpk1 := p1.DataPlane(net1, keys1, dataplane.Options{})
	if dpk1.IsZero() {
		t.Fatal("baseline run degraded")
	}

	// "Restart": fresh pipeline and memory store, same directory.
	p2 := New(Config{Disk: openDisk(t, dir)})
	net2, _, keys2 := p2.Parse(texts)
	st := p2.Stats()
	if st.Parse.DiskHits != int64(len(texts)) {
		t.Errorf("parse disk hits = %d, want %d", st.Parse.DiskHits, len(texts))
	}
	dp2, dpk2 := p2.DataPlane(net2, keys2, dataplane.Options{})
	st = p2.Stats()
	if st.DataPlane.DiskHits != 1 {
		t.Errorf("dataplane disk hits = %d, want 1", st.DataPlane.DiskHits)
	}
	if st.DataPlane.ColdRuns != 0 {
		t.Errorf("dataplane recomputed on warm restart: %+v", st.DataPlane)
	}
	if dpk2 != dpk1 {
		t.Errorf("dataplane key changed across restart")
	}
	if dp2.Network != net2 {
		t.Error("rehydrated data plane is not linked to the network parsed for it")
	}
	for name := range dp1.Nodes {
		if dp2.NodeFingerprint(name) != dp1.NodeFingerprint(name) {
			t.Errorf("node %s fingerprint differs after rehydration", name)
		}
	}
	// Second lookup hits memory, not disk (promotion worked).
	before := p2.DiskStats().Hits
	if _, ok := p2.store.Get(dpk2); !ok {
		t.Error("rehydrated artifact was not promoted to memory")
	}
	_, _ = p2.DataPlane(net2, keys2, dataplane.Options{})
	if p2.DiskStats().Hits != before {
		t.Error("memory-resident artifact read disk again")
	}
}

// TestOldDataPlaneArtifactRecomputes: a data-plane entry in an older
// artifact format reads as a miss, and the stage recomputes.
func TestOldDataPlaneArtifactRecomputes(t *testing.T) {
	dir := t.TempDir()
	texts := testTexts()
	p1 := New(Config{Disk: openDisk(t, dir)})
	net1, _, keys1 := p1.Parse(texts)
	dp1, dpk := p1.DataPlane(net1, keys1, dataplane.Options{})
	old, err := os.ReadFile("../dataplane/testdata/artifact_v2_figure2.gob")
	if err != nil {
		t.Fatal(err)
	}
	p1.disk.Put(dpk, old)

	p2 := New(Config{Disk: openDisk(t, dir)})
	net2, _, keys2 := p2.Parse(texts)
	dp2, _ := p2.DataPlane(net2, keys2, dataplane.Options{})
	if st := p2.Stats(); st.DataPlane.DiskHits != 0 || st.DataPlane.ColdRuns != 1 {
		t.Errorf("old artifact was not a miss: %+v", st.DataPlane)
	}
	if dp2.Fingerprint() != dp1.Fingerprint() {
		t.Error("recomputed data plane differs")
	}
}

// TestDegradedArtifactsNeverPersist: a cancelled/quarantined run carries
// a zero key and must not land in either tier.
func TestDegradedArtifactsNeverPersist(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Disk: openDisk(t, dir)})
	// A parse key set missing one device yields the zero data-plane key.
	net, _, keys := p.Parse(testTexts())
	partial := map[string]Key{}
	for n, k := range keys {
		partial[n] = k
		break
	}
	if k := DataPlaneKey(net, partial, dataplane.Options{}); !k.IsZero() {
		t.Fatal("partial key set should map to the zero key")
	}
	st := p.DiskStats()
	// Only parse artifacts may be on disk; no data-plane entry exists.
	if st.Puts != uint64(len(keys)) {
		t.Errorf("disk puts = %d, want %d parse artifacts only", st.Puts, len(keys))
	}
}

// TestEvictionDemotesToDisk: artifacts evicted from the memory tier (or
// purged under pressure) land on disk and rehydrate on the next miss.
func TestEvictionDemotesToDisk(t *testing.T) {
	dir := t.TempDir()
	disk := openDisk(t, dir)
	// Capacity 2: parsing two devices then computing the data plane must
	// evict a parse artifact to make room.
	p := New(Config{StoreCapacity: 2, Disk: disk})
	net, _, keys := p.Parse(testTexts())
	dp, dpk := p.DataPlane(net, keys, dataplane.Options{})
	if dpk.IsZero() || dp == nil {
		t.Fatal("run degraded")
	}
	if st := p.store.Stats(); st.Evictions == 0 {
		t.Fatalf("expected memory evictions at capacity 2: %+v", st)
	}
	// Every parse artifact is still reachable: memory or disk.
	for name, k := range keys {
		_, inMem := p.store.Get(k)
		if !inMem && !disk.Has(k) {
			t.Errorf("device %s artifact lost by eviction", name)
		}
	}
	// A fresh parse of the same texts is fully warm (no cold devices).
	cold := p.Stats().Parse.ColdRuns
	p.Parse(testTexts())
	if got := p.Stats().Parse.ColdRuns; got != cold {
		t.Errorf("parse re-ran cold after demotion: %d -> %d", cold, got)
	}
}

func TestPutIfAbsent(t *testing.T) {
	s := NewStore(4)
	k := keyOf([]byte("k"))
	v, inserted := s.PutIfAbsent(k, "first")
	if !inserted || v.(string) != "first" {
		t.Fatalf("first PutIfAbsent = %v, %v", v, inserted)
	}
	v, inserted = s.PutIfAbsent(k, "second")
	if inserted || v.(string) != "first" {
		t.Fatalf("second PutIfAbsent = %v, %v; want existing value", v, inserted)
	}
}

func TestPurge(t *testing.T) {
	s := NewStore(8)
	var evicted []Key
	var mu sync.Mutex
	s.OnEvict(func(k Key, v any) {
		mu.Lock()
		evicted = append(evicted, k)
		mu.Unlock()
	})
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = keyOf([]byte(fmt.Sprint(i)))
		s.Put(keys[i], i)
	}
	n := s.Purge(func(k Key, v any) bool { return v.(int)%2 == 0 })
	if n != 2 {
		t.Fatalf("Purge removed %d, want 2", n)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("purged entry still present")
	}
	if _, ok := s.Get(keys[1]); !ok {
		t.Error("unmatched entry was purged")
	}
	mu.Lock()
	ne := len(evicted)
	mu.Unlock()
	if ne != 2 {
		t.Errorf("eviction callback saw %d entries, want 2", ne)
	}
	// nil predicate purges everything.
	if n := s.Purge(nil); n != 2 {
		t.Errorf("Purge(nil) removed %d, want the remaining 2", n)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Errorf("entries after full purge: %+v", st)
	}
}

// TestStoreConcurrentCounters hammers the two-tier entry points under
// -race: counters must stay consistent and no callback may deadlock.
func TestStoreConcurrentCounters(t *testing.T) {
	s := NewStore(8)
	s.OnEvict(func(k Key, v any) {
		// Re-entering the store from the callback must not deadlock.
		s.Stats()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf([]byte(fmt.Sprint(i % 16)))
				switch i % 4 {
				case 0:
					s.Put(k, i)
				case 1:
					s.PutIfAbsent(k, i)
				case 2:
					s.Get(k)
				default:
					if i%32 == 3 {
						s.Purge(func(Key, any) bool { return true })
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 8 {
		t.Fatalf("store over capacity: %+v", st)
	}
}
