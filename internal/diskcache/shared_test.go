package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestTwoOpensShareOneDir is the multi-process regression test (two Cache
// values over one directory stand in for two batfishd processes): entries
// committed through one handle must be servable through the other, and a
// Put interleaved with the other handle's evictions of the same key must
// never corrupt, quarantine, or tear anything.
func TestTwoOpensShareOneDir(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{MaxBytes: -1})
	b := openT(t, dir, Options{MaxBytes: -1})

	// Cross-handle visibility: b adopts a's entry on Get fall-through.
	k := keyFor("shared")
	a.Put(k, []byte("written by a"))
	if got, ok := b.Get(k); !ok || string(got) != "written by a" {
		t.Fatalf("b.Get of a's entry = %q, %v", got, ok)
	}
	if st := b.Stats(); st.Adopted != 1 || st.Hits != 1 {
		t.Fatalf("b stats after adoption: %+v", st)
	}

	// Interleaved Put (a) and eviction pressure (tiny bound on c) over the
	// same keys: every Get through any handle must return either a verified
	// payload or a clean miss — never a quarantine.
	entry := func(i int) ([32]byte, []byte) {
		return keyFor(fmt.Sprint(i % 7)), []byte(fmt.Sprintf("payload-%d", i%7))
	}
	small, err := Open(dir, Options{MaxBytes: int64(3 * (headerSize + 16))})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k, payload := entry(i)
				switch (i + g) % 3 {
				case 0:
					a.Put(k, payload)
				case 1:
					small.Put(k, payload) // drives evictions of the same keys
				default:
					if got, ok := b.Get(k); ok && string(got) != string(payload) {
						t.Errorf("torn read through b: %q", got)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range []*Cache{a, b, small} {
		if st := c.Stats(); st.Quarantined != 0 {
			t.Errorf("interleaved put/evict quarantined %d entries: %+v", st.Quarantined, st)
		}
	}
	if st := small.Stats(); st.Evictions == 0 {
		t.Error("eviction pressure never evicted; test exercised nothing")
	}

	// A fresh Open during the churn's aftermath must see no orphans to
	// misclassify: live commits hold the shared flock.
	c2 := openT(t, dir, Options{MaxBytes: -1})
	if st := c2.Stats(); st.Quarantined != 0 {
		t.Errorf("reopen quarantined %d entries", st.Quarantined)
	}
}

// TestRecordsPinnedAndShared: a pinned record sits outside the byte
// bound and the LRU (no amount of entry writes evicts it, and it is not
// an entry), one handle sees another's write and delete, and a torn
// record temp is swept by the next Open.
func TestRecordsPinnedAndShared(t *testing.T) {
	dir := t.TempDir()
	entrySize := int64(headerSize + 8)
	a := openT(t, dir, Options{MaxBytes: 2 * entrySize})
	b := openT(t, dir, Options{MaxBytes: -1})
	if err := a.WriteRecord("cluster/x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a.Put(keyFor(fmt.Sprint(i)), []byte("12345678"))
	}
	if st := a.Stats(); st.Evictions == 0 || st.Entries != 2 {
		t.Fatalf("entry writes never pressed the bound: %+v", st)
	}
	if got, ok := b.Record("cluster/x"); !ok || string(got) != "v1" {
		t.Fatalf("record after eviction pressure: %q %v", got, ok)
	}
	if err := b.WriteRecord("cluster/x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Record("cluster/x"); !ok || string(got) != "v2" {
		t.Fatalf("a reads b's rewrite as %q %v", got, ok)
	}
	if err := b.DeleteRecord("cluster/x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Record("cluster/x"); ok {
		t.Fatal("a still reads the record b deleted")
	}
	if err := a.DeleteRecord("cluster/x"); err != nil {
		t.Fatalf("deleting an absent record: %v", err)
	}
	torn := filepath.Join(dir, recordsDir, "123.tmp")
	if err := os.WriteFile(torn, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openT(t, dir, Options{MaxBytes: -1})
	if _, err := os.Stat(torn); !os.IsNotExist(err) || c.Stats().ScanRemoved != 1 {
		t.Fatalf("Open left the torn record temp (stat err %v, stats %+v)", err, c.Stats())
	}
	if _, ok := (*Cache)(nil).Record("cluster/x"); ok {
		t.Fatal("nil cache Record")
	}
}

func TestLeaseAcquireContendRelease(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})
	b := openT(t, dir, Options{})

	la, err := a.AcquireLease("manifest/prod", "member-a", time.Minute)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := b.AcquireLease("manifest/prod", "member-b", time.Minute); err == nil {
		t.Fatal("contended acquire succeeded")
	}
	if st := b.Stats(); st.LeasesContended != 1 {
		t.Fatalf("b stats: %+v", st)
	}
	// Same owner re-acquire refreshes rather than contending.
	if _, err := a.AcquireLease("manifest/prod", "member-a", time.Minute); err != nil {
		t.Fatalf("self re-acquire: %v", err)
	}
	if err := la.Renew(time.Minute); err != nil {
		t.Fatalf("renew: %v", err)
	}
	la.Release()
	if _, err := b.AcquireLease("manifest/prod", "member-b", time.Minute); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestLeaseCrashOrphanRecovery(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})

	// A "crashed" holder: lease taken with a tiny ttl and never renewed.
	if _, err := a.AcquireLease("manifest/prod", "dead-member", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	// Path 1: a live Acquire steals the expired lease.
	l, err := a.AcquireLease("manifest/prod", "heir", time.Minute)
	if err != nil {
		t.Fatalf("expired lease not reclaimed: %v", err)
	}
	if st := a.Stats(); st.LeaseOrphans != 1 {
		t.Fatalf("orphan not counted: %+v", st)
	}
	l.Release()

	// Path 2: the recovery scan sweeps expired and torn lease files.
	if _, err := a.AcquireLease("manifest/other", "dead-member", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, leasesDir, "torn.lease"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	c2 := openT(t, dir, Options{})
	if st := c2.Stats(); st.LeaseOrphans != 2 {
		t.Fatalf("scan reclaimed %d orphans, want 2 (expired + torn): %+v", st.LeaseOrphans, st)
	}
	if _, err := c2.AcquireLease("manifest/other", "heir", time.Minute); err != nil {
		t.Fatalf("acquire after scan recovery: %v", err)
	}
}

// TestLeaseLostAfterExpiry: a holder that let its lease lapse and lose to
// another owner must learn that from Renew.
func TestLeaseLostAfterExpiry(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})
	l, err := a.AcquireLease("m", "first", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := a.AcquireLease("m", "second", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := l.Renew(time.Minute); err == nil {
		t.Fatal("renew of a stolen lease succeeded")
	}
	// Release of the lost lease must not remove the new owner's grant.
	l.Release()
	if _, err := a.AcquireLease("m", "third", time.Minute); err == nil {
		t.Fatal("second's lease vanished after first's stale Release")
	}
}
