// Package routing defines routes, RIBs, and the memory-optimization
// machinery of paper §4.1.3: interned routing attributes (AS paths,
// community sets, and the combined 13-property BGP attribute object),
// RIB deltas for the hybrid queue-free convergence scheme, and logical
// clocks for arrival-time tie-breaking (§4.1.2).
package routing

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ip4"
)

// Protocol identifies the routing protocol that produced a route.
type Protocol uint8

// Protocols, ordered roughly by typical administrative preference.
const (
	Connected Protocol = iota
	Local              // interface /32 host routes
	Static
	OSPF   // intra-area
	OSPFIA // inter-area
	OSPFE1 // external type 1
	OSPFE2 // external type 2
	EBGP
	IBGP
	Aggregate
	numProtocols
)

var protoNames = [numProtocols]string{
	"connected", "local", "static", "ospf", "ospfIA", "ospfE1", "ospfE2",
	"bgp", "ibgp", "aggregate",
}

func (p Protocol) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// DefaultAdminDistance returns the Cisco-style default administrative
// distance for the protocol.
func (p Protocol) DefaultAdminDistance() uint8 {
	switch p {
	case Connected, Local:
		return 0
	case Static:
		return 1
	case EBGP:
		return 20
	case OSPF, OSPFIA, OSPFE1, OSPFE2:
		return 110
	case IBGP:
		return 200
	case Aggregate:
		return 200
	}
	return 255
}

// IsBGP reports whether the protocol is a BGP variant.
func (p Protocol) IsBGP() bool { return p == EBGP || p == IBGP }

// IsOSPF reports whether the protocol is an OSPF variant.
func (p Protocol) IsOSPF() bool {
	return p == OSPF || p == OSPFIA || p == OSPFE1 || p == OSPFE2
}

// Origin is the BGP origin attribute.
type Origin uint8

// BGP origin codes; lower is preferred.
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "igp"
	case OriginEGP:
		return "egp"
	}
	return "incomplete"
}

// ASPath is an interned BGP AS path. Compare with ==; construct only
// through a Pool.
type ASPath struct {
	asns string // 4 bytes per ASN, big-endian, so == works
}

// Len returns the number of ASNs in the path.
func (p ASPath) Len() int { return len(p.asns) / 4 }

// At returns the i-th ASN.
func (p ASPath) At(i int) uint32 {
	b := p.asns[i*4:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Contains reports whether the path contains asn (the BGP loop check).
func (p ASPath) Contains(asn uint32) bool {
	for i := 0; i < p.Len(); i++ {
		if p.At(i) == asn {
			return true
		}
	}
	return false
}

// String renders the path as space-separated ASNs ("65001 65002"), the
// form AS-path regexes match against.
func (p ASPath) String() string {
	var b strings.Builder
	for i := 0; i < p.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", p.At(i))
	}
	return b.String()
}

// CommunitySet is an interned, sorted set of BGP standard communities.
// Compare with ==; construct only through a Pool.
type CommunitySet struct {
	comms string // 4 bytes per community, sorted ascending
}

// Len returns the number of communities.
func (c CommunitySet) Len() int { return len(c.comms) / 4 }

// At returns the i-th community (ascending order).
func (c CommunitySet) At(i int) uint32 {
	b := c.comms[i*4:]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Has reports whether community v is in the set.
func (c CommunitySet) Has(v uint32) bool {
	lo, hi := 0, c.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if c.At(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < c.Len() && c.At(lo) == v
}

// Values returns the communities as a fresh slice.
func (c CommunitySet) Values() []uint32 {
	out := make([]uint32, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// CommunityString renders a community in new-format "asn:value".
func CommunityString(v uint32) string {
	return fmt.Sprintf("%d:%d", v>>16, v&0xffff)
}

// String renders the set as space-separated "asn:value" pairs.
func (c CommunitySet) String() string {
	parts := make([]string, c.Len())
	for i := range parts {
		parts[i] = CommunityString(c.At(i))
	}
	return strings.Join(parts, " ")
}

// BGPAttrs is the combined attribute object of paper §4.1.3: the 13 BGP
// route properties that typically repeat across many routes, moved into a
// single interned value so each route carries one pointer. "There are
// typically 10x–20x fewer combinations of those properties than routes."
type BGPAttrs struct {
	AdminDistance uint8        // 1
	LocalPref     uint32       // 2
	MED           uint32       // 3
	Weight        uint32       // 4
	Origin        Origin       // 5
	ASPath        ASPath       // 6 (itself interned)
	Communities   CommunitySet // 7 (itself interned)
	OriginatorID  ip4.Addr     // 8
	FromAS        uint32       // 9  neighbor AS the route came from
	ReceivedFrom  ip4.Addr     // 10 neighbor IP
	SrcProtocol   Protocol     // 11 redistribution source
	Tag           uint32       // 12
	IGPMetric     uint32       // 13 IGP cost to the BGP next hop
}

// Route is a single RIB entry. Identity (for delta computation and
// equality) covers every field except Clock, which records logical arrival
// time and participates only in tie-breaking.
type Route struct {
	Prefix       ip4.Prefix
	Protocol     Protocol
	NextHop      ip4.Addr // 0 for connected/local
	NextHopIface string   // set for connected and interface static routes
	NextHopNode  string   // simulation-level: neighbor that sent the route
	Metric       uint32
	AD           uint8
	Tag          uint32
	Area         uint32    // OSPF area the route belongs to (OSPF protocols only)
	Drop         bool      // null route (discard)
	Attrs        *BGPAttrs // interned; nil unless Protocol.IsBGP()

	// Clock is the logical arrival time (§4.1.2): monotonically increasing
	// across RIB merges, used to prefer the oldest equally-good eBGP path
	// like real routers do. Not part of route identity.
	Clock uint64
}

// Key is the identity of a route, excluding Clock. Routes with equal Keys
// are the same route for delta and convergence purposes.
type Key struct {
	Prefix       ip4.Prefix
	Protocol     Protocol
	NextHop      ip4.Addr
	NextHopIface string
	NextHopNode  string
	Metric       uint32
	AD           uint8
	Tag          uint32
	Area         uint32
	Drop         bool
	Attrs        *BGPAttrs
}

// Key returns the identity key of r.
func (r Route) Key() Key {
	return Key{
		Prefix: r.Prefix, Protocol: r.Protocol, NextHop: r.NextHop,
		NextHopIface: r.NextHopIface, NextHopNode: r.NextHopNode,
		Metric: r.Metric, AD: r.AD, Tag: r.Tag, Area: r.Area, Drop: r.Drop,
		Attrs: r.Attrs,
	}
}

func (r Route) String() string {
	s := fmt.Sprintf("%s via %s", r.Prefix, r.Protocol)
	if r.Drop {
		return s + " drop"
	}
	if r.NextHop != 0 {
		s += fmt.Sprintf(" nh=%s", r.NextHop)
	}
	if r.NextHopIface != "" {
		s += fmt.Sprintf(" if=%s", r.NextHopIface)
	}
	s += fmt.Sprintf(" metric=%d ad=%d", r.Metric, r.AD)
	if r.Attrs != nil {
		s += fmt.Sprintf(" lp=%d as=[%s]", r.Attrs.LocalPref, r.Attrs.ASPath)
	}
	return s
}

// Pool interns AS paths, community sets, and BGPAttrs objects, so that
// equality is pointer/value equality and attribute memory is shared across
// routes (paper §4.1.3).
//
// A Pool is safe for concurrent use and layered for scalability:
//
//   - The hot read path is a lock-free direct-mapped cache of canonical
//     pointers (one atomic load + a hash and a value compare per hit).
//     Because the sharded table below is the sole producer of canonical
//     pointers, racing writes to a cache slot are benign — any published
//     pointer is correct, slots are only ever overwritten with other
//     canonical pointers.
//   - Misses fall through to a 64-way sharded hash-consed table (one
//     mutex per shard, selected by an FNV-1a hash of the interned bytes),
//     with new attribute objects carved from per-shard arena blocks so a
//     simulation's misses cost one heap allocation per block, not per
//     attribute object.
//   - Hit/miss counters are per-shard and cache-line padded: a single
//     shared counter pair would put one contended line in front of every
//     intern call from every worker.
//
// The simulator owns one Pool per run and all workers share it.
type Pool struct {
	shards [poolShards]poolShard

	// Direct-mapped front caches, indexed by the same hash that selects
	// the shard. Entries are canonical pointers owned by the shard maps.
	attrCache [attrCacheSize]atomic.Pointer[internedAttrs]
	pathCache [attrCacheSize]atomic.Pointer[ASPath]

	counters [poolShards]poolCounters
}

// poolShards is the number of independently locked shards. A power of two
// so shard selection is a mask of the key hash.
const poolShards = 64

// attrCacheSize is the direct-mapped front-cache size (slots, power of two).
const attrCacheSize = 1 << 13

// attrArenaBlock is how many interned attrs one shard arena block holds.
const attrArenaBlock = 128

type poolShard struct {
	mu       sync.Mutex
	asPaths  map[string]*ASPath
	commSets map[string]CommunitySet
	attrs    map[BGPAttrs]*internedAttrs
	arena    []internedAttrs // arena-style allocation for interned attrs
}

// internedAttrs is a canonical attribute object with its hash, so a
// front-cache probe rejects a slot holding other attributes on one word
// compare instead of the 13-field one. Pool.Attrs hands out a pointer to
// the embedded BGPAttrs.
type internedAttrs struct {
	BGPAttrs
	hash uint64
}

// poolCounters keeps one shard's hit/miss statistics on its own cache
// line (64-byte pad) so parallel workers never false-share counter words.
type poolCounters struct {
	attrHits atomic.Uint64
	attrMiss atomic.Uint64
	pathHits atomic.Uint64
	pathMiss atomic.Uint64
	_        [4]uint64
}

// NewPool returns an empty intern pool.
func NewPool() *Pool {
	p := &Pool{}
	for i := range p.shards {
		s := &p.shards[i]
		s.asPaths = make(map[string]*ASPath)
		s.commSets = make(map[string]CommunitySet)
		s.attrs = make(map[BGPAttrs]*internedAttrs)
	}
	return p
}

// FNV-1a, the shard-selection hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// encodeU32s writes vals as 4-byte big-endian groups into buf (reused when
// large enough, so short paths/sets stay on the stack).
func encodeU32s(buf []byte, vals []uint32) []byte {
	b := buf
	if len(vals)*4 > cap(b) {
		b = make([]byte, len(vals)*4)
	}
	b = b[:len(vals)*4]
	for i, a := range vals {
		b[i*4] = byte(a >> 24)
		b[i*4+1] = byte(a >> 16)
		b[i*4+2] = byte(a >> 8)
		b[i*4+3] = byte(a)
	}
	return b
}

// ASPath interns the given ASN sequence. The hit path performs no
// allocation and takes no lock: the key bytes live in a stack buffer, the
// direct-mapped cache resolves repeats with one atomic load, and the
// sharded-map fallback uses the compiler's string(b)-in-index-expression
// optimization.
func (p *Pool) ASPath(asns ...uint32) ASPath {
	var buf [64]byte
	b := encodeU32s(buf[:0], asns)
	h := mix64(fnv1a(fnvOffset, b))
	c := &p.counters[h&(poolShards-1)]
	slot := &p.pathCache[(h>>6)&(attrCacheSize-1)]
	if v := slot.Load(); v != nil && v.asns == string(b) {
		c.pathHits.Add(1)
		return *v
	}
	s := &p.shards[h&(poolShards-1)]
	s.mu.Lock()
	if v, ok := s.asPaths[string(b)]; ok {
		s.mu.Unlock()
		c.pathHits.Add(1)
		slot.Store(v)
		return *v
	}
	k := string(b)
	v := &ASPath{asns: k}
	s.asPaths[k] = v
	s.mu.Unlock()
	c.pathMiss.Add(1)
	slot.Store(v)
	return *v
}

// Prepend interns path with asn prepended n times. The ASN scratch list
// lives on the stack for paths of up to 30 hops.
func (p *Pool) Prepend(path ASPath, asn uint32, n int) ASPath {
	var buf [32]uint32
	asns := buf[:0]
	if path.Len()+n > len(buf) {
		asns = make([]uint32, 0, path.Len()+n)
	}
	for i := 0; i < n; i++ {
		asns = append(asns, asn)
	}
	for i := 0; i < path.Len(); i++ {
		asns = append(asns, path.At(i))
	}
	return p.ASPath(asns...)
}

// CommunitySet interns the given communities (deduplicated, sorted). Like
// ASPath, the hit path does not allocate for sets of up to 16 communities.
func (p *Pool) CommunitySet(comms ...uint32) CommunitySet {
	var vbuf [16]uint32
	sorted := vbuf[:0]
	if len(comms) > len(vbuf) {
		sorted = make([]uint32, 0, len(comms))
	}
	sorted = append(sorted, comms...)
	// Insertion sort: sets are tiny and sort.Slice's closure would force
	// the stack buffer to escape, costing an allocation per call.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	dedup := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	var buf [64]byte
	b := encodeU32s(buf[:0], dedup)
	s := &p.shards[fnv1a(fnvOffset, b)&(poolShards-1)]
	s.mu.Lock()
	if v, ok := s.commSets[string(b)]; ok {
		s.mu.Unlock()
		return v
	}
	k := string(b)
	v := CommunitySet{comms: k}
	s.commSets[k] = v
	s.mu.Unlock()
	return v
}

// AddCommunity interns set ∪ {comm}.
func (p *Pool) AddCommunity(set CommunitySet, comm uint32) CommunitySet {
	return p.CommunitySet(append(set.Values(), comm)...)
}

// RemoveCommunities interns the set minus all communities matching pred.
// Single pass over the interned representation (no Values() copies); when
// nothing matches, the original interned set is returned without touching
// the pool.
func (p *Pool) RemoveCommunities(set CommunitySet, pred func(uint32) bool) CommunitySet {
	var buf [16]uint32
	keep := buf[:0]
	n := set.Len()
	if n > len(buf) {
		keep = make([]uint32, 0, n)
	}
	removed := false
	for i := 0; i < n; i++ {
		v := set.At(i)
		if pred(v) {
			removed = true
		} else {
			keep = append(keep, v)
		}
	}
	if !removed {
		return set
	}
	return p.CommunitySet(keep...)
}

// fnv1aWords folds s four bytes at a time (one multiply per word instead
// of per byte) — the intern hot path hashes short interned strings on
// every Attrs call, so hash arithmetic is a measurable slice of route
// processing.
func fnv1aWords(seed uint64, s string) uint64 {
	h := seed
	i := 0
	for ; i+4 <= len(s); i += 4 {
		h ^= uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24
		h *= fnvPrime
	}
	for ; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// attrsHash hashes a BGPAttrs value (interned string fields and scalars)
// for shard and front-cache selection. Scalars are packed into five words;
// each string and word is multiplied by its own odd constant and the
// products summed, so the multiplies are independent (they overlap in the
// pipeline, where a chained FNV fold waits on each in turn) before one
// avalanche.
func attrsHash(a *BGPAttrs) uint64 {
	return mix64(fnv1aWords(fnvOffset, a.ASPath.asns) +
		fnv1aWords(fnvOffset, a.Communities.comms)*0x9e3779b97f4a7c15 +
		(uint64(a.LocalPref)<<32|uint64(a.MED))*0xc2b2ae3d27d4eb4f +
		(uint64(a.Weight)<<32|uint64(a.OriginatorID))*0x165667b19e3779f9 +
		(uint64(a.ReceivedFrom)<<32|uint64(a.FromAS))*0x27d4eb2f165667c5 +
		(uint64(a.IGPMetric)<<32|uint64(a.Tag))*0x94d049bb133111eb +
		(uint64(a.AdminDistance)|uint64(a.Origin)<<8|uint64(a.SrcProtocol)<<16)*0xbf58476d1ce4e5b9)
}

// mix64 is an avalanche finalizer: a multiply only carries differences
// upward, so without this, keys differing in high-order packed fields
// collide in the low bits that pick the shard and the direct-mapped cache
// slot.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// Attrs interns the attribute value *a (read, never retained; pass a
// pointer so the 80-byte value is not copied per call) and returns the
// canonical pointer. The hit path is lock-free: one atomic load from the
// direct-mapped cache, then the stored hash and the value compared. The
// miss path carves the canonical object from the shard's arena block and
// publishes it to the cache.
func (p *Pool) Attrs(a *BGPAttrs) *BGPAttrs {
	h := attrsHash(a)
	c := &p.counters[h&(poolShards-1)]
	slot := &p.attrCache[(h>>6)&(attrCacheSize-1)]
	if v := slot.Load(); v != nil && v.hash == h && v.BGPAttrs == *a {
		c.attrHits.Add(1)
		return &v.BGPAttrs
	}
	s := &p.shards[h&(poolShards-1)]
	s.mu.Lock()
	v, ok := s.attrs[*a]
	if !ok {
		if len(s.arena) == 0 {
			s.arena = make([]internedAttrs, attrArenaBlock)
		}
		v = &s.arena[0]
		s.arena = s.arena[1:]
		*v = internedAttrs{BGPAttrs: *a, hash: h}
		s.attrs[*a] = v
	}
	s.mu.Unlock()
	if ok {
		c.attrHits.Add(1)
	} else {
		c.attrMiss.Add(1)
	}
	slot.Store(v)
	return &v.BGPAttrs
}

// Stats reports pool population and hit counts, used by the §4.1.3 memory
// experiment to show the attribute-combination ratio.
type Stats struct {
	UniqueAttrs, UniqueASPaths, UniqueCommSets int
	AttrHits, AttrMisses                       uint64
	PathHits, PathMisses                       uint64
}

// Stats returns current interning statistics, summed across shards.
// CommunitySet interning is uncounted (it sits on the attr fast path).
func (p *Pool) Stats() Stats {
	var st Stats
	for i := range p.counters {
		c := &p.counters[i]
		st.AttrHits += c.attrHits.Load()
		st.AttrMisses += c.attrMiss.Load()
		st.PathHits += c.pathHits.Load()
		st.PathMisses += c.pathMiss.Load()
	}
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		st.UniqueAttrs += len(s.attrs)
		st.UniqueASPaths += len(s.asPaths)
		st.UniqueCommSets += len(s.commSets)
		s.mu.Unlock()
	}
	return st
}
