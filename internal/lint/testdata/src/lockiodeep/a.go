// Lock-io corpus, call-graph cases: calls made under a held sync mutex
// whose callee (transitively) reaches file or net I/O. The direct
// I/O-under-lock cases live in the lockio corpus; everything here needs
// the call-graph summaries to see the I/O.
package lockiodeep

import (
	"os"
	"sync"
)

type cache struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	path string
	buf  []byte
	data map[string]int
}

// flockExclusive models the diskcache directory flock pseudo-lock.
func (c *cache) flockExclusive() func() { return func() {} }

func (c *cache) flush() error {
	return os.WriteFile(c.path, c.buf, 0o644)
}

// persist reaches I/O one level deeper: persist -> flush -> WriteFile.
func (c *cache) persist() error {
	return c.flush()
}

func load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

// bump is pure: no I/O anywhere in its summary.
func (c *cache) bump(k string) {
	c.data[k]++
}

// The PR-4 shape only the summaries can see: the I/O is one call
// away.
func (c *cache) putAndFlush(k string, v int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[k] = v
	return c.flush() // want `call to cache\.flush while c\.mu\.Lock is held reaches I/O: os\.WriteFile \(the PR-4 bug class, one call deep\)`
}

// Two calls deep: the witness chain names every hop down to the I/O.
func (c *cache) checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persist() // want `call to cache\.persist while c\.mu\.Lock is held reaches I/O: cache\.flush -> os\.WriteFile`
}

// Package-level callee under a read lock.
func (c *cache) warm(path string) ([]byte, error) {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return load(path) // want `call to load while c\.rw\.RLock is held reaches I/O: os\.ReadFile`
}

// Pure callee under the lock: no I/O in the summary, no finding.
func (c *cache) bumpUnderLockOK(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump(k)
}

// I/O-reaching call after the unlock: the PR-4 fix shape.
func (c *cache) flushOutsideLockOK(k string, v int) error {
	c.mu.Lock()
	c.data[k] = v
	c.mu.Unlock()
	return c.flush()
}

// The flock pseudo-lock exists to serialize writers around exactly
// this I/O, so calls under it are exempt (as is direct I/O).
func (c *cache) flushUnderFlockOK() error {
	unlock := c.flockExclusive()
	defer unlock()
	return c.flush()
}

func (c *cache) suppressedFlush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//gblint:ignore lock-io corpus: startup-only path, the lock is uncontended by construction
	return c.flush()
}
