package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faults"
)

func keyFor(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

func openT(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openT(t, t.TempDir(), Options{})
	k := keyFor("a")
	payload := []byte("the artifact bytes")
	c.Put(k, payload)
	got, ok := c.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	if _, ok := c.Get(keyFor("missing")); ok {
		t.Fatal("Get of unknown key hit")
	}
	st := c.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroKeyNeverPersisted(t *testing.T) {
	c := openT(t, t.TempDir(), Options{})
	c.Put([sha256.Size]byte{}, []byte("degraded artifact"))
	if st := c.Stats(); st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("zero key was persisted: %+v", st)
	}
}

// TestRecoveryKillMidWrite simulates every torn state a crash mid-write
// can leave under the temp-file + rename protocol, plus bit rot, and
// asserts the recovery scan serves none of them.
func TestRecoveryKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, Options{})
	good1, good2 := keyFor("good1"), keyFor("good2")
	torn := keyFor("torn")
	flipped := keyFor("flipped")
	c.Put(good1, []byte("payload-1"))
	c.Put(good2, []byte("payload-2"))
	c.Put(torn, []byte("payload-torn"))
	c.Put(flipped, []byte("payload-flipped"))

	// Crash states, created directly against the directory as a kill at
	// the worst moment would leave them:
	// 1. An orphan temp file (killed before rename).
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("half a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	// 2. A committed entry truncated mid-payload (torn write on a
	// non-atomic filesystem).
	tornPath := c.path(fmt.Sprintf("%x", torn))
	b, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	// 3. A committed entry with a flipped payload bit (bit rot).
	flipPath := c.path(fmt.Sprintf("%x", flipped))
	b, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x40
	if err := os.WriteFile(flipPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the same directory.
	c2 := openT(t, dir, Options{})
	st := c2.Stats()
	if st.ScanRemoved != 1 {
		t.Errorf("ScanRemoved = %d, want 1 (the orphan temp)", st.ScanRemoved)
	}
	if st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2 (torn + bit-flipped)", st.Quarantined)
	}
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want the 2 clean ones", st.Entries)
	}
	for _, k := range [][sha256.Size]byte{torn, flipped} {
		if _, ok := c2.Get(k); ok {
			t.Error("corrupt entry was served")
		}
	}
	if got, ok := c2.Get(good1); !ok || string(got) != "payload-1" {
		t.Errorf("clean entry 1 lost: %q %v", got, ok)
	}
	if got, ok := c2.Get(good2); !ok || string(got) != "payload-2" {
		t.Errorf("clean entry 2 lost: %q %v", got, ok)
	}
	// Quarantined files are preserved for post-mortem.
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qfiles) != 2 {
		t.Errorf("quarantine dir: %v files, err %v; want 2", len(qfiles), err)
	}
	// The orphan temp is gone.
	if _, err := os.Stat(filepath.Join(dir, "put-123.tmp")); !os.IsNotExist(err) {
		t.Error("orphan temp file survived the recovery scan")
	}
}

// TestCorruptionQuarantinedOnGet covers detection at read time (no
// restart): the entry reads as a miss and moves to quarantine, so the
// caller recomputes.
func TestCorruptionQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, Options{})
	k := keyFor("x")
	c.Put(k, []byte("payload"))
	path := c.path(fmt.Sprintf("%x", k))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	st := c.Stats()
	if st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after corrupt Get: %+v", st)
	}
	// A fresh Put re-commits cleanly.
	c.Put(k, []byte("recomputed"))
	if got, ok := c.Get(k); !ok || string(got) != "recomputed" {
		t.Fatalf("recomputed entry: %q %v", got, ok)
	}
}

// TestInjectedKillMidWrite uses the fault injector to kill the write
// between header and payload; the entry must not commit and no temp file
// may leak.
func TestInjectedKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, Options{})
	inj := faults.New().Enable("diskcache", "write", faults.Rule{Kind: faults.Panic, Count: 1})
	defer faults.Activate(inj)()
	k := keyFor("doomed")
	c.Put(k, []byte("never lands"))
	if _, ok := c.Get(k); ok {
		t.Fatal("interrupted write was served")
	}
	st := c.Stats()
	if st.PutErrors != 1 {
		t.Fatalf("PutErrors = %d, want 1", st.PutErrors)
	}
	// Second attempt (rule count exhausted) commits.
	c.Put(k, []byte("lands"))
	if got, ok := c.Get(k); !ok || string(got) != "lands" {
		t.Fatalf("retry write: %q %v", got, ok)
	}
	// No temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("leaked temp files: %v", matches)
	}
}

func TestEvictionLRU(t *testing.T) {
	entrySize := int64(headerSize + 8)
	c := openT(t, t.TempDir(), Options{MaxBytes: 3 * entrySize})
	ks := [][sha256.Size]byte{keyFor("0"), keyFor("1"), keyFor("2"), keyFor("3")}
	for _, k := range ks[:3] {
		c.Put(k, []byte("12345678"))
	}
	// Touch ks[0] so ks[1] is the LRU victim.
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("warm get missed")
	}
	c.Put(ks[3], []byte("12345678"))
	onDisk := func(k [sha256.Size]byte) bool {
		_, err := os.Stat(c.path(hex.EncodeToString(k[:])))
		return err == nil
	}
	if onDisk(ks[1]) {
		t.Error("LRU victim survived")
	}
	for _, k := range [][sha256.Size]byte{ks[0], ks[2], ks[3]} {
		if !onDisk(k) {
			t.Error("recently used entry evicted")
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecoveryRespectsBound: reopening a directory holding more bytes
// than the bound evicts down to it (oldest first).
func TestRecoveryRespectsBound(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, Options{})
	for i := 0; i < 6; i++ {
		c.Put(keyFor(fmt.Sprint(i)), []byte("12345678"))
	}
	entrySize := int64(headerSize + 8)
	c2 := openT(t, dir, Options{MaxBytes: 2 * entrySize})
	if st := c2.Stats(); st.Entries != 2 || st.Bytes != 2*entrySize {
		t.Fatalf("bounded reopen: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := openT(t, t.TempDir(), Options{MaxBytes: -1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keyFor(fmt.Sprint(i % 10))
				if i%3 == 0 {
					c.Put(k, []byte(fmt.Sprintf("payload-%d", i%10)))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Puts == 0 {
		t.Fatal("no puts landed")
	}
}

// FuzzVerifyEntry feeds arbitrary bytes to the entry-framing check, as
// given and freshly framed: it never panics, every input it accepts
// re-frames to the same bytes, and framing any payload verifies back to
// that payload.
func FuzzVerifyEntry(f *testing.F) {
	hdr := entryHeader([]byte("payload"))
	valid := append(hdr[:], "payload"...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append([]byte("BFC0"), valid[4:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		if payload, err := verifyEntry(b); err == nil {
			h := entryHeader(payload)
			if got := append(h[:], payload...); string(got) != string(b) {
				t.Fatalf("accepted entry re-frames differently:\n got %x\nwant %x", got, b)
			}
		}
		h := entryHeader(b)
		payload, err := verifyEntry(append(h[:], b...))
		if err != nil || string(payload) != string(b) {
			t.Fatalf("framed payload does not verify back: %v", err)
		}
	})
}
