// Package diskcache is a crash-safe persistent byte store: the second
// tier under the pipeline's in-memory artifact Store. Entries are keyed
// by the pipeline's content hashes and written with a checksummed header
// via temp-file + atomic rename, so a process killed mid-write can never
// publish a torn entry — at worst it leaves a temp file that the next
// startup's recovery scan removes. Corrupt or truncated entries (torn
// writes on non-atomic filesystems, bit rot) are detected by the SHA-256
// payload checksum and quarantined instead of served.
//
// The cache degrades, never fails: every disk error — unwritable
// directory, checksum mismatch, injected fault — turns into a miss (Get)
// or a dropped write (Put) plus a counter, so analysis correctness is
// independent of disk health. Capacity is bounded by bytes with LRU
// eviction (recency seeded from file mtimes across restarts).
//
// A directory may be shared by several processes (the cluster's shared
// artifact store): commits, eviction removals, and the recovery scan
// coordinate through a directory flock (lock.go), a Get that misses the
// in-memory index falls through to the directory and adopts entries
// committed by other processes, named leases (lease.go) give callers
// advisory cross-process mutual exclusion with crash-orphan recovery, and
// pinned records (record.go) hold name-addressed facts outside the LRU.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
)

// magic identifies entry files; bump the version byte when the on-disk
// format changes so old caches are quarantined wholesale, not misread.
var magic = [4]byte{'B', 'F', 'C', '1'}

// headerSize is magic + 8-byte payload length + 32-byte SHA-256.
const headerSize = 4 + 8 + sha256.Size

// entrySuffix names committed entries; temp files use tmpPattern and are
// removed by the recovery scan (a temp file is, by construction, a write
// the process did not survive).
const (
	entrySuffix   = ".art"
	tmpPattern    = "put-*.tmp"
	quarantineDir = "quarantine"
)

// DefaultMaxBytes bounds the cache when Options.MaxBytes is 0 (256 MiB).
const DefaultMaxBytes = 256 << 20

// Options tune an opened cache.
type Options struct {
	// MaxBytes bounds the total committed entry payload+header bytes;
	// DefaultMaxBytes when 0, unbounded when negative.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits        uint64 // Get served a verified entry
	Misses      uint64 // Get found nothing (or only corruption)
	Puts        uint64 // committed writes
	PutErrors   uint64 // writes dropped by IO errors or injected faults
	Evictions   uint64 // entries removed by the byte bound
	Quarantined uint64 // corrupt/truncated entries moved aside (Get + scan)
	ScanRemoved uint64 // orphan temp files removed by the recovery scan

	// Multi-process sharing (cluster artifact store).
	Adopted         uint64 // entries another process committed, indexed on Get
	LeasesAcquired  uint64 // AcquireLease grants (including refreshes)
	LeasesContended uint64 // AcquireLease refusals: live lease held elsewhere
	LeaseOrphans    uint64 // expired/torn leases reclaimed (acquire + scan)

	Entries  int   // committed entries currently indexed
	Bytes    int64 // committed bytes currently indexed
	MaxBytes int64
}

// Cache is a directory-backed artifact store. All methods are safe for
// concurrent use; a Cache may be shared by many pipelines.
type Cache struct {
	dir string
	max int64
	now func() time.Time // lease-expiry time source; wall clock by default

	mu    sync.Mutex
	index map[string]*entryState // key hex → state
	order []string               // LRU order, front = least recently used
	bytes int64
	qseq  uint64
	stats Stats
}

type entryState struct {
	size int64
}

// Open opens (creating if needed) a cache rooted at dir and runs the
// recovery scan: orphan temp files are deleted, committed entries are
// length- and checksum-verified, and anything invalid is moved to the
// quarantine/ subdirectory for post-mortem instead of being served.
func Open(dir string, opts Options) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	max := opts.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	c := &Cache{dir: dir, max: max, now: time.Now, index: make(map[string]*entryState)}
	c.stats.MaxBytes = max
	// The scan holds the directory lock exclusively: a concurrent writer in
	// another process (shared lock) finishes its commit first, so its live
	// temp file can never be mistaken for a crash orphan.
	unlock := c.flockExclusive()
	c.stats.ScanRemoved = sweepTemps(c.dir) + sweepTemps(filepath.Join(c.dir, recordsDir))
	err := c.recoverScan()
	c.recoverLeases()
	unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// recoverScan validates every file in the cache directory. It runs before
// the cache is visible to any caller (under the exclusive directory
// flock), so it needs no in-process locking.
func (c *Cache) recoverScan() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	type found struct {
		hexKey string
		size   int64
		mtime  int64
	}
	var committed []found
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(c.dir, name)
		if !strings.HasSuffix(name, entrySuffix) {
			continue // foreign file; leave it alone
		}
		hexKey := strings.TrimSuffix(name, entrySuffix)
		info, err := e.Info()
		if err != nil {
			c.quarantine(path, hexKey)
			continue
		}
		if _, err := c.readVerified(path); err != nil {
			c.quarantine(path, hexKey)
			continue
		}
		committed = append(committed, found{hexKey: hexKey, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Seed recency from mtimes so eviction order survives restarts.
	sort.Slice(committed, func(i, j int) bool {
		if committed[i].mtime != committed[j].mtime {
			return committed[i].mtime < committed[j].mtime
		}
		return committed[i].hexKey < committed[j].hexKey
	})
	for _, f := range committed {
		c.index[f.hexKey] = &entryState{size: f.size}
		c.order = append(c.order, f.hexKey)
		c.bytes += f.size
	}
	// The exclusive flock is already held; remove over-bound files inline.
	for _, hexKey := range c.evictPlanLocked() {
		os.Remove(c.path(hexKey))
	}
	return nil
}

// readVerified reads an entry file and returns its verified payload.
func (c *Cache) readVerified(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return verifyEntry(b)
}

// entryHeader is the framing written before payload: the magic, the
// big-endian payload length, and the payload's SHA-256.
func entryHeader(payload []byte) [headerSize]byte {
	var h [headerSize]byte
	copy(h[:4], magic[:])
	binary.BigEndian.PutUint64(h[4:12], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(h[12:], sum[:])
	return h
}

// verifyEntry checks an entry file's bytes against the framing of
// entryHeader — magic, declared length, SHA-256 checksum — and returns
// the payload. It is the only gate between disk bytes and a Get hit.
func verifyEntry(b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("truncated header: %d bytes", len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("bad magic %q", b[:4])
	}
	n := binary.BigEndian.Uint64(b[4:12])
	payload := b[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("truncated payload: have %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if [sha256.Size]byte(b[12:headerSize]) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// quarantineLocked reserves a quarantine destination and counts the
// event under c.mu (which the caller must hold), returning the file
// move to run after the mutex is released — the move is disk I/O and
// must never serialize other lock holders (the PR-4 bug class).
func (c *Cache) quarantineLocked(path, hexKey string) (move func()) {
	qdir := filepath.Join(c.dir, quarantineDir)
	c.qseq++
	dst := filepath.Join(qdir, fmt.Sprintf("%s-%d.bad", hexKey, c.qseq))
	c.stats.Quarantined++
	return func() {
		// Removing on any failure: a corrupt entry must never stay
		// servable.
		if os.MkdirAll(qdir, 0o755) != nil || os.Rename(path, dst) != nil {
			os.Remove(path)
		}
	}
}

// quarantine moves a bad entry into quarantine/. Callers must not hold
// c.mu; it is taken briefly to reserve the destination sequence number.
func (c *Cache) quarantine(path, hexKey string) {
	c.mu.Lock()
	move := c.quarantineLocked(path, hexKey)
	c.mu.Unlock()
	move()
}

func (c *Cache) path(hexKey string) string {
	return filepath.Join(c.dir, hexKey+entrySuffix)
}

// touch moves hexKey to the most-recently-used end of the order.
func (c *Cache) touch(hexKey string) {
	for i, k := range c.order {
		if k == hexKey {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), hexKey)
			return
		}
	}
	c.order = append(c.order, hexKey)
}

// Get returns the verified payload for key. A corrupt entry is
// quarantined and reported as a miss; the caller recomputes, and the
// recompute's Put replaces the entry. A key absent from the in-memory
// index falls through to a directory probe: in a shared directory another
// process may have committed the entry after this cache's recovery scan,
// and a verified probe adopts it (index + LRU) so the cluster's shared
// artifact tier behaves as one store.
func (c *Cache) Get(key [sha256.Size]byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	faults.Fire("diskcache", "get")
	hexKey := hex.EncodeToString(key[:])
	// Read and verify outside the lock so disk latency never serializes
	// the cache's callers. The entry may be evicted or replaced while we
	// read: rename-based commits mean we always see a complete old or new
	// file, and an eviction surfaces as file-not-found, a plain miss.
	payload, err := c.readVerified(c.path(hexKey))
	c.mu.Lock()
	_, indexed := c.index[hexKey]
	if err != nil {
		if indexed {
			c.dropLocked(hexKey)
		}
		move := func() {}
		if !os.IsNotExist(err) {
			// Corrupt on disk, whether ours or another process's: never
			// leave it servable. The file move runs after Unlock.
			move = c.quarantineLocked(c.path(hexKey), hexKey)
		}
		c.stats.Misses++
		c.mu.Unlock()
		move()
		return nil, false
	}
	var victims []string
	c.touch(hexKey)
	if !indexed {
		size := int64(headerSize + len(payload))
		c.index[hexKey] = &entryState{size: size}
		c.bytes += size
		c.stats.Adopted++
		victims = c.evictPlanLocked()
	}
	c.stats.Hits++
	c.mu.Unlock()
	c.removeFiles(victims)
	return payload, true
}

// Put commits a payload for key via temp file + fsync + atomic rename.
// The zero key (degraded artifacts) is never persisted. Failures —
// including injected diskcache faults — drop the write and count it;
// they never propagate to the analysis.
func (c *Cache) Put(key [sha256.Size]byte, payload []byte) {
	if c == nil || key == [sha256.Size]byte{} {
		return
	}
	size := int64(headerSize + len(payload))
	if c.max > 0 && size > c.max {
		c.mu.Lock()
		c.stats.PutErrors++
		c.mu.Unlock()
		return
	}
	// Write, fsync, and rename outside the mutex: each Put uses its own
	// temp file and the rename is atomic, so concurrent Puts of the same
	// key just race benignly (last committed file wins; the index update
	// below is serialized). The write holds the directory flock shared, so
	// another process's recovery scan or eviction (exclusive) can never
	// interleave with the commit.
	if err := c.writeEntry(key, payload); err != nil {
		c.mu.Lock()
		c.stats.PutErrors++
		c.mu.Unlock()
		return
	}
	hexKey := hex.EncodeToString(key[:])
	c.mu.Lock()
	if old, ok := c.index[hexKey]; ok {
		c.bytes -= old.size
	}
	c.index[hexKey] = &entryState{size: size}
	c.bytes += size
	c.touch(hexKey)
	c.stats.Puts++
	victims := c.evictPlanLocked()
	c.mu.Unlock()
	c.removeFiles(victims)
}

// writeEntry performs the crash-safe write. A panic between the partial
// write and the rename (the injected kill-mid-write) leaves only a temp
// file behind, exactly like a real crash, and is converted to an error.
func (c *Cache) writeEntry(key [sha256.Size]byte, payload []byte) (err error) {
	unlock := c.flockShared()
	defer unlock()
	f, err := os.CreateTemp(c.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	committed := false
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("diskcache: write interrupted: %v", v)
		}
		if !committed {
			f.Close()
			os.Remove(tmp)
		}
	}()
	hdrBuf := entryHeader(payload)
	if _, err := f.Write(hdrBuf[:]); err != nil {
		return err
	}
	// The injection point sits between the header and payload writes, so a
	// "kill" here leaves a torn temp file — the worst case a real crash
	// can produce under the rename protocol.
	faults.Fire("diskcache", "write")
	if _, err := f.Write(payload); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path(hex.EncodeToString(key[:]))); err != nil {
		os.Remove(tmp)
		return err
	}
	committed = true
	return nil
}

// dropLocked removes hexKey from the index and order without touching
// the file.
func (c *Cache) dropLocked(hexKey string) {
	st, ok := c.index[hexKey]
	if !ok {
		return
	}
	delete(c.index, hexKey)
	c.bytes -= st.size
	for i, k := range c.order {
		if k == hexKey {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// evictPlanLocked drops least-recently-used entries from the index until
// under the byte bound and returns their keys. The caller removes the
// files after releasing c.mu (removeFiles), so cross-process lock waits
// never happen under the in-process mutex.
func (c *Cache) evictPlanLocked() []string {
	if c.max <= 0 {
		return nil
	}
	var victims []string
	for c.bytes > c.max && len(c.order) > 0 {
		hexKey := c.order[0]
		c.dropLocked(hexKey)
		c.stats.Evictions++
		victims = append(victims, hexKey)
	}
	return victims
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.index)
	st.Bytes = c.bytes
	return st
}

// SetClock replaces the cache's time source for lease-expiry decisions
// (AcquireLease, Renew, and the recovery sweep of later Opens). Chaos and
// unit tests use it to drive lease expiry deterministically without real
// sleeps; a nil fn restores the wall clock. Call before sharing the cache
// across goroutines — it is not synchronized against in-flight leases.
func (c *Cache) SetClock(fn func() time.Time) {
	if fn == nil {
		fn = time.Now
	}
	c.now = fn
}
