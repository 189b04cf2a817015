package pipeline

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key is a content address: the SHA-256 of a stage's declared inputs.
// Stage keys are prefixed with the stage name, so two stages can never
// collide even when fed identical bytes.
type Key [sha256.Size]byte

// zeroKey marks "no key" (uncached artifacts).
var zeroKey Key

// IsZero reports whether the key is unset.
func (k Key) IsZero() bool { return k == zeroKey }

// String renders a short hex prefix for logs and cache-stats output.
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// keyOf hashes the given byte sections with separators, so adjacent
// sections can never alias ("ab","c" != "a","bc").
func keyOf(sections ...[]byte) Key {
	h := sha256.New()
	var sep [1]byte
	for _, s := range sections {
		h.Write(s)
		sep[0] = 0xff
		h.Write(sep[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// StoreStats is a snapshot of the artifact store counters.
type StoreStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Capacity  int
}

// Store is a bounded, thread-safe, in-memory artifact store with LRU
// eviction. Artifacts are keyed by content hash, so a lookup hit means the
// stage's declared inputs are byte-identical to a previous run and the
// cached artifact can be reused verbatim.
//
// Parse artifacts live here, one per device, even though parsing is
// cheap: a hit hands back the very *config.Device an earlier snapshot
// parsed from the same bytes, which is how independently loaded
// snapshots share device models by pointer (an edit takes its unchanged
// models from its base instead, and still looks each one up here).
// Capacity counts entries of every stage alike, so those per-device
// entries take up slots; callers size the store with them in mind.
type Store struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type storeEntry struct {
	key Key
	val any
}

// DefaultCapacity bounds the default store. Capacity counts entries, not
// bytes: one per device for parse (kept so unchanged device models are
// shared by pointer across snapshots), one per snapshot for each later
// stage. So this comfortably covers an edit-verify loop over a few large
// snapshots.
const DefaultCapacity = 1024

// NewStore returns an empty store holding at most max artifacts
// (DefaultCapacity when max <= 0).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultCapacity
	}
	return &Store{max: max, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the artifact for key, marking it most recently used.
func (s *Store) Get(k Key) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*storeEntry).val, true
}

// insertLocked adds a new entry as most recently used and evicts the
// least recently used entries beyond capacity. The caller holds s.mu and
// has checked that k is absent.
func (s *Store) insertLocked(k Key, v any) {
	s.items[k] = s.ll.PushFront(&storeEntry{key: k, val: v})
	for s.ll.Len() > s.max {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*storeEntry).key)
		s.evictions++
	}
}

// Put inserts (or refreshes) an artifact, evicting the least recently used
// entries beyond capacity.
func (s *Store) Put(k Key, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*storeEntry).val = v
		s.ll.MoveToFront(el)
		return
	}
	s.insertLocked(k, v)
}

// PutIfAbsent inserts the artifact only when the key is not already
// present, returning the stored value and whether this call inserted it.
// Disk-tier promotion uses it so a concurrent compute and a promotion of
// the same key cannot displace each other's (identical, but separately
// allocated) artifacts.
func (s *Store) PutIfAbsent(k Key, v any) (stored any, inserted bool) {
	if s == nil {
		return v, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*storeEntry).val, false
	}
	s.insertLocked(k, v)
	return v, true
}

// Stats returns the current counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   s.ll.Len(),
		Capacity:  s.max,
	}
}
