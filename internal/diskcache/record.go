// Pinned records: tiny name-addressed files under records/, outside the
// byte bound and the LRU. Entries are content-addressed, so losing one to
// eviction costs at most a recompute; a record states a fact under a name
// (which manifest a snapshot name means, which member coordinates), which
// eviction would lose. Records commit like lease files, by temp + atomic
// rename, and the next Open's recovery scan sweeps a crashed write's temp.
package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
)

const recordsDir = "records"

// recordPath names a record's file by the SHA-256 of its name, so names of
// any length and alphabet map to one fixed-length file name.
func (c *Cache) recordPath(name string) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join(c.dir, recordsDir, hex.EncodeToString(sum[:]))
}

// WriteRecord atomically replaces the named record. The shared directory
// flock keeps another process's recovery scan off the live temp file.
func (c *Cache) WriteRecord(name string, b []byte) error {
	unlock := c.flockShared()
	defer unlock()
	return writeAtomic(c.recordPath(name), b)
}

// Record returns the named record; ok is false when there is none (or no
// cache). A read sees a whole old or new record, never a torn one.
func (c *Cache) Record(name string) (b []byte, ok bool) {
	if c == nil {
		return nil, false
	}
	b, err := os.ReadFile(c.recordPath(name))
	return b, err == nil
}

// DeleteRecord removes the named record; an absent record (or cache) is
// not an error.
func (c *Cache) DeleteRecord(name string) error {
	if c == nil {
		return nil
	}
	if err := os.Remove(c.recordPath(name)); !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// writeAtomic commits b at path by temp + atomic rename, so readers see
// the old file or the new one; a crash leaves only a *.tmp file.
func writeAtomic(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), "*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// sweepTemps removes the temp files crashed writers left in dir and
// returns how many. The caller holds the exclusive directory flock.
func sweepTemps(dir string) (n uint64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
			n++
		}
	}
	return n
}
