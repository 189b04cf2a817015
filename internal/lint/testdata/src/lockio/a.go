// Golden corpus for the lock-io check: direct I/O, net calls, and
// channel sends while a sync mutex is held (calls that reach I/O are in
// the lockiodeep corpus). The check has no package scope; the path only
// must be unique.
package lockio

import (
	"net"
	"os"
	"sync"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string][]byte
}

func (s *store) readUnderLock(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(path) // want `call to os\.ReadFile while s\.mu\.Lock is held`
}

// I/O first, lock only around the map write — the PR-4 fix shape.
func (s *store) readOutsideLockOK(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.data[path] = b
	s.mu.Unlock()
	return b, nil
}

// The diskcache false-positive regression: classifying an I/O error
// under the index lock is a pure predicate, not I/O.
func (s *store) classifyUnderLockOK(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.IsNotExist(err)
}

func (s *store) sendUnderLock(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while s\.mu\.Lock is held`
	s.mu.Unlock()
}

func (s *store) sendAfterUnlockOK(ch chan int) {
	s.mu.Lock()
	s.data = nil
	s.mu.Unlock()
	ch <- 1
}

func (s *store) dialUnderRLock(addr string) (net.Conn, error) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return net.Dial("tcp", addr) // want `call to net\.Dial while s\.rw\.RLock is held`
}

func (s *store) fileMethodUnderLock(f *os.File, b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.Write(b) // want `call to \(os\.File\)\.Write while s\.mu\.Lock is held`
}

// A literal built under the lock runs later, off the lock; its body is
// analyzed as a function in its own right (and holds no lock there).
func (s *store) deferredWorkOK(path string) func() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() ([]byte, error) { return os.ReadFile(path) }
}

func (s *store) suppressedRemove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	//gblint:ignore lock-io startup-only path; the lock is uncontended by construction
	return os.Remove(path)
}
