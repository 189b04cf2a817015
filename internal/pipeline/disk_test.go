package pipeline

import (
	"context"
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
// sharing only the cache directory re-parses (parse artifacts are
// memory-only), serves the data plane from disk without simulating, and
// the rehydrated result is indistinguishable from the computed one.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	texts := testTexts()

	p1 := New(Config{Disk: openDisk(t, dir)})
	net1, keys1 := parse(p1, texts)
	dp1, dpk1 := p1.DataPlaneCtx(context.Background(), net1, keys1, dataplane.Options{}, nil)
	if dpk1.IsZero() {
		t.Fatal("baseline run degraded")
	}

	// "Restart": fresh pipeline and memory store, same directory.
	p2 := New(Config{Disk: openDisk(t, dir)})
	net2, keys2 := parse(p2, texts)
	st := p2.Stats()
	if st.Parse.DiskHits != 0 {
		t.Errorf("parse disk hits = %d, want 0 (parse artifacts are memory-only)", st.Parse.DiskHits)
	}
	dp2, dpk2 := p2.DataPlaneCtx(context.Background(), net2, keys2, dataplane.Options{}, nil)
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
	_, _ = p2.DataPlaneCtx(context.Background(), net2, keys2, dataplane.Options{}, nil)
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
	net1, keys1 := parse(p1, texts)
	dp1, dpk := p1.DataPlaneCtx(context.Background(), net1, keys1, dataplane.Options{}, nil)
	old, err := os.ReadFile("../dataplane/testdata/artifact_v2_figure2.gob")
	if err != nil {
		t.Fatal(err)
	}
	p1.disk.Put(dpk, old)

	p2 := New(Config{Disk: openDisk(t, dir)})
	net2, keys2 := parse(p2, texts)
	dp2, _ := p2.DataPlaneCtx(context.Background(), net2, keys2, dataplane.Options{}, nil)
	if st := p2.Stats(); st.DataPlane.DiskHits != 0 || st.DataPlane.ColdRuns != 1 {
		t.Errorf("old artifact was not a miss: %+v", st.DataPlane)
	}
	if dp2.Fingerprint() != dp1.Fingerprint() {
		t.Error("recomputed data plane differs")
	}
}

// TestDegradedArtifactsNeverPersist: a run with a zero data-plane key (a
// parse key set missing one device, as after a quarantine) must not land
// on disk — and since parse artifacts are memory-only, nothing does.
func TestDegradedArtifactsNeverPersist(t *testing.T) {
	dir := t.TempDir()
	p := New(Config{Disk: openDisk(t, dir)})
	net, keys := parse(p, testTexts())
	partial := map[string]Key{}
	for n, k := range keys {
		partial[n] = k
		break
	}
	if k := DataPlaneKey(net, partial, dataplane.Options{}); !k.IsZero() {
		t.Fatal("partial key set should map to the zero key")
	}
	if _, k := p.DataPlaneCtx(context.Background(), net, partial, dataplane.Options{}, nil); !k.IsZero() {
		t.Fatal("data plane over a partial key set returned a key")
	}
	if st := p.DiskStats(); st.Puts != 0 || st.Entries != 0 {
		t.Errorf("disk tier holds %d entries after %d puts, want none", st.Entries, st.Puts)
	}
}

// TestEvictedDataPlaneRehydratesFromDisk: a data-plane artifact evicted
// from the memory tier is still on disk — written through when it was
// computed — and comes back from there on the next miss, without a
// recompute or a second disk write.
func TestEvictedDataPlaneRehydratesFromDisk(t *testing.T) {
	dir := t.TempDir()
	disk := openDisk(t, dir)
	p := New(Config{StoreCapacity: 4, Disk: disk})
	net, keys := parse(p, testTexts())
	dp, dpk := p.DataPlaneCtx(context.Background(), net, keys, dataplane.Options{}, nil)
	if dpk.IsZero() || dp == nil {
		t.Fatal("run degraded")
	}
	// Fill the memory tier until the data-plane artifact is evicted.
	for i := 0; i < 4; i++ {
		p.store.Put(keyOf([]byte("filler"), []byte(fmt.Sprint(i))), i)
	}
	if _, ok := p.store.Get(dpk); ok {
		t.Fatal("data-plane artifact still in memory after filling the store")
	}
	dp2, dpk2 := p.DataPlaneCtx(context.Background(), net, keys, dataplane.Options{}, nil)
	st := p.Stats()
	if dpk2 != dpk || st.DataPlane.DiskHits != 1 || st.DataPlane.ColdRuns != 1 {
		t.Errorf("evicted data plane not served from disk: %+v", st.DataPlane)
	}
	if st.Disk.Puts != 1 {
		t.Errorf("disk puts = %d, want 1 (the write-through)", st.Disk.Puts)
	}
	if dp2.Fingerprint() != dp.Fingerprint() {
		t.Error("rehydrated data plane differs from the computed one")
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

// TestStoreConcurrentCounters hammers the store's entry points under
// -race: the capacity bound and the counters must stay consistent.
func TestStoreConcurrentCounters(t *testing.T) {
	s := NewStore(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf([]byte(fmt.Sprint(i % 16)))
				switch i % 3 {
				case 0:
					s.Put(k, i)
				case 1:
					s.PutIfAbsent(k, i)
				default:
					s.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 8 {
		t.Fatalf("store over capacity: %+v", st)
	}
	if gets := uint64(8 * 66); st.Hits+st.Misses != gets {
		t.Fatalf("hits+misses = %d, want one per Get (%d)", st.Hits+st.Misses, gets)
	}
}
