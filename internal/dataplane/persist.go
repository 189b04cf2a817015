package dataplane

// Persistence for clean data-plane results: the disk-cache tier of the
// staged pipeline stores converged simulations across process restarts,
// so a warm-restarted service — or a compare that finds its candidate on
// disk — loads the data plane instead of simulating it again.
//
// The artifact holds exactly the post-convergence state the rest of the
// engine observes: per-VRF best-route sets (which NodeFingerprint and
// StateHash are defined over), resolved FIB entries, BGP sessions, the
// failure overlay, and convergence metadata. It does not hold the
// network: the data-plane cache key already hashes every device model,
// so UnmarshalResult re-links the result to the caller's parsed network
// (NodeState.Device and Session.Neighbor point into it) and re-infers the
// topology from it under the persisted mask.
//
// The format is one compact binary layout, every integer a uvarint
// unless noted:
//
//	magic "gbdp", version
//	string table   count, every length, then the bytes back to back:
//	               device, VRF and interface names, packed AS paths and
//	               community sets, warnings, down reasons
//	attribute table count, then each distinct *BGPAttrs once
//	metadata       flags, cycle, iteration counts, warnings
//	suppression    masked links, downed nodes, held sessions
//	scope          count, then each canonical prefix
//	nodes          sorted by name; per VRF (sorted) the five RIBs' best
//	               routes in AllBest order, then the FIB entries
//	sessions       in Result.Sessions order
//	CRC-32C        4 bytes, little-endian, over everything before it
//
// Routes, FIB entries and sessions index the two tables, and addresses
// are 4 fixed bytes. The decoder reads the attribute table into one arena,
// so decoded routes share attribute pointers wherever the computed ones
// did (the §4.1.3 interning survives the round trip), and it rebuilds
// each RIB with routing.(*RIB).Load — the persisted best sets installed
// directly, no decision process, clocks stamped in load order. Every
// count and index is bounded by the bytes that remain, so truncated or
// corrupt input returns an error, never a panic or a huge allocation.
//
// Degraded results (cancelled, quarantined, diagnostics) are rejected at
// marshal time: the disk tier must never let a transient failure
// impersonate a converged truth after a restart.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/fib"
	"repro/internal/ip4"
	"repro/internal/routing"
	"repro/internal/topo"
)

// persistVersion guards the artifact layout; bump on any layout change
// so stale disk entries fail to decode (and get recomputed) instead of
// misloading. v2 added the failure-scenario Suppression; v3 replaced the
// gob encoding with the columnar format above and dropped the network;
// v4 added the query Scope.
const persistVersion = 4

const artifactMagic = "gbdp"

var artifactCRC = crc32.MakeTable(crc32.Castagnoli)

// Flag bits. A route's header byte carries its Protocol in the low
// nibble (the enum has fewer than 16 values) and these in the high one.
const (
	routeDrop    = 1 << 4
	routeNextHop = 1 << 5
	routeAttrs   = 1 << 6

	nhDrop = 1 << 0
	nhIP   = 1 << 1

	vrfMultipathEBGP = 1 << 0
	vrfMultipathIBGP = 1 << 1
	vrfFIB           = 1 << 2

	sessEBGP = 1 << 0
	sessUp   = 1 << 1

	metaConverged   = 1 << 0
	metaOscillation = 1 << 1
	metaCycle       = 1 << 2
)

// Minimum encoded sizes, in bytes, that bound every decoded count by the
// input that remains.
const (
	minString   = 1  // a length, or a string-table index
	minAttrs    = 19 // 3 bytes, 8 uvarints, 2 addresses
	minLink     = 4
	minSupSess  = 10
	minPrefix   = 5
	minNode     = 2
	minVRF      = 7 // name, flags, five RIB counts
	minRoute    = 13
	minFIBEntry = 6
	minNextHop  = 3
	minSession  = 17
)

// wbuf is an append-only encoding buffer.
type wbuf []byte

func (w *wbuf) uvarint(v uint64)    { *w = binary.AppendUvarint(*w, v) }
func (w *wbuf) u8(v uint8)          { *w = append(*w, v) }
func (w *wbuf) addr(a ip4.Addr)     { *w = binary.BigEndian.AppendUint32(*w, uint32(a)) }
func (w *wbuf) prefix(p ip4.Prefix) { w.addr(p.Addr); w.u8(p.Len) }

// encoder collects the string and attribute tables while it writes the
// body, then assembles the artifact.
type encoder struct {
	body    wbuf
	strIdx  map[string]uint64
	strs    []string
	attrIdx map[*routing.BGPAttrs]uint64
	attrs   wbuf
}

func (e *encoder) strRef(s string) uint64 {
	i, ok := e.strIdx[s]
	if !ok {
		i = uint64(len(e.strs))
		e.strIdx[s] = i
		e.strs = append(e.strs, s)
	}
	return i
}

func (e *encoder) str(s string) { e.body.uvarint(e.strRef(s)) }

// attrRef returns a's attribute-table index, appending a row on first
// sight. Rows are keyed by pointer, so decoded routes share an
// attribute object exactly where the computed routes did.
func (e *encoder) attrRef(a *routing.BGPAttrs) uint64 {
	if i, ok := e.attrIdx[a]; ok {
		return i
	}
	i := uint64(len(e.attrIdx))
	e.attrIdx[a] = i
	w := &e.attrs
	w.u8(a.AdminDistance)
	w.u8(uint8(a.Origin))
	w.u8(uint8(a.SrcProtocol))
	w.uvarint(uint64(a.LocalPref))
	w.uvarint(uint64(a.MED))
	w.uvarint(uint64(a.Weight))
	w.uvarint(e.strRef(a.ASPath.Packed()))
	w.uvarint(e.strRef(a.Communities.Packed()))
	w.addr(a.OriginatorID)
	w.uvarint(uint64(a.FromAS))
	w.addr(a.ReceivedFrom)
	w.uvarint(uint64(a.Tag))
	w.uvarint(uint64(a.IGPMetric))
	return i
}

func (e *encoder) routes(rs []routing.Route) {
	e.body.uvarint(uint64(len(rs)))
	for i := range rs {
		rt := &rs[i]
		h := uint8(rt.Protocol)
		if rt.Drop {
			h |= routeDrop
		}
		if rt.NextHop != 0 {
			h |= routeNextHop
		}
		if rt.Attrs != nil {
			h |= routeAttrs
		}
		e.body.u8(h)
		e.body.prefix(rt.Prefix)
		if rt.NextHop != 0 {
			e.body.addr(rt.NextHop)
		}
		e.str(rt.NextHopIface)
		e.str(rt.NextHopNode)
		e.body.uvarint(uint64(rt.Metric))
		e.body.u8(rt.AD)
		e.body.uvarint(uint64(rt.Tag))
		e.body.uvarint(uint64(rt.Area))
		if rt.Attrs != nil {
			e.body.uvarint(e.attrRef(rt.Attrs))
		}
		e.body.uvarint(rt.Clock)
	}
}

func (e *encoder) fibEntries(es []fib.Entry) {
	e.body.uvarint(uint64(len(es)))
	for _, ent := range es {
		e.body.prefix(ent.Prefix)
		e.body.uvarint(uint64(len(ent.NextHops)))
		for _, nh := range ent.NextHops {
			var f uint8
			if nh.Drop {
				f |= nhDrop
			}
			if nh.IP != 0 {
				f |= nhIP
			}
			e.body.u8(f)
			e.str(nh.Iface)
			if nh.IP != 0 {
				e.body.addr(nh.IP)
			}
			e.str(nh.Node)
		}
	}
}

// neighborRef returns s.Neighbor's position in its VRF's configured
// neighbor list plus one (0 for none), the handle UnmarshalResult
// re-links through.
func neighborRef(net *config.Network, s *Session) (uint64, error) {
	if s.Neighbor == nil {
		return 0, nil
	}
	if d := net.Devices[s.LocalNode]; d != nil {
		if cv := d.VRFs[s.LocalVRF]; cv != nil && cv.BGP != nil {
			for i, n := range cv.BGP.Neighbors {
				if n == s.Neighbor {
					return uint64(i) + 1, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("dataplane: session %s: neighbor not in the network's configuration", s)
}

// MarshalResult encodes a clean result for the persistent cache tier.
// Degraded results (the same set the in-memory tier refuses to cache)
// return an error. The encoding is deterministic: equal results give
// equal bytes.
func MarshalResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("dataplane: marshal of nil result")
	}
	if r.Degraded() || len(r.Quarantined) > 0 {
		return nil, fmt.Errorf("dataplane: refusing to persist a degraded result")
	}
	e := &encoder{
		strIdx:  make(map[string]uint64),
		attrIdx: make(map[*routing.BGPAttrs]uint64),
	}
	e.meta(r)
	names := make([]string, 0, len(r.Nodes))
	for n := range r.Nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	e.body.uvarint(uint64(len(names)))
	for _, name := range names {
		ns := r.Nodes[name]
		e.str(name)
		vrfs := sortedVRFNames(ns)
		e.body.uvarint(uint64(len(vrfs)))
		for _, vn := range vrfs {
			vs := ns.VRFs[vn]
			e.str(vn)
			var f uint8
			if vs.multipathEBGP {
				f |= vrfMultipathEBGP
			}
			if vs.multipathIBGP {
				f |= vrfMultipathIBGP
			}
			if vs.FIB != nil {
				f |= vrfFIB
			}
			e.body.u8(f)
			for _, rib := range vs.ribs() {
				e.routes(rib.AllBest())
			}
			if vs.FIB != nil {
				e.fibEntries(vs.FIB.Entries())
			}
		}
	}
	e.body.uvarint(uint64(len(r.Sessions)))
	for _, s := range r.Sessions {
		nb, err := neighborRef(r.Network, s)
		if err != nil {
			return nil, err
		}
		var f uint8
		if s.EBGP {
			f |= sessEBGP
		}
		if s.Up {
			f |= sessUp
		}
		e.body.u8(f)
		e.str(s.LocalNode)
		e.str(s.LocalVRF)
		e.body.addr(s.LocalIP)
		e.body.uvarint(uint64(s.LocalAS))
		e.str(s.PeerNode)
		e.str(s.PeerVRF)
		e.body.addr(s.PeerIP)
		e.body.uvarint(uint64(s.PeerAS))
		e.str(s.DownReason)
		e.body.uvarint(nb)
	}
	return e.assemble(), nil
}

func (e *encoder) meta(r *Result) {
	var f uint8
	if r.Converged {
		f |= metaConverged
	}
	if r.Oscillation {
		f |= metaOscillation
	}
	if r.Cycle != nil {
		f |= metaCycle
	}
	e.body.u8(f)
	if c := r.Cycle; c != nil {
		e.str(c.Protocol)
		e.body.uvarint(uint64(c.FirstIteration))
		e.body.uvarint(uint64(c.RepeatIteration))
		e.body.uvarint(c.StateHash)
	}
	e.body.uvarint(uint64(r.IGPIterations))
	e.body.uvarint(uint64(r.BGPIterations))
	e.body.uvarint(uint64(r.OuterRounds))
	e.body.uvarint(uint64(len(r.Warnings)))
	for _, w := range r.Warnings {
		e.str(w)
	}
	sup := r.Suppress
	e.body.uvarint(uint64(len(sup.Links)))
	for _, l := range sup.Links {
		e.str(l.Node1)
		e.str(l.Iface1)
		e.str(l.Node2)
		e.str(l.Iface2)
	}
	e.body.uvarint(uint64(len(sup.Nodes)))
	for _, n := range sup.Nodes {
		e.str(n)
	}
	e.body.uvarint(uint64(len(sup.Sessions)))
	for _, k := range sup.Sessions {
		e.str(k.Node1)
		e.body.addr(k.IP1)
		e.str(k.Node2)
		e.body.addr(k.IP2)
	}
	e.body.uvarint(uint64(len(r.Scope)))
	for _, p := range r.Scope {
		e.body.prefix(p)
	}
}

// assemble lays out header, tables, body and checksum.
func (e *encoder) assemble() []byte {
	strBytes := 0
	for _, s := range e.strs {
		strBytes += len(s)
	}
	out := make(wbuf, 0, 16+len(e.strs)+strBytes+len(e.attrs)+len(e.body)+4)
	out = append(out, artifactMagic...)
	out.uvarint(persistVersion)
	out.uvarint(uint64(len(e.strs)))
	for _, s := range e.strs {
		out.uvarint(uint64(len(s)))
	}
	for _, s := range e.strs {
		out = append(out, s...)
	}
	out.uvarint(uint64(len(e.attrIdx)))
	out = append(out, e.attrs...)
	out = append(out, e.body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, artifactCRC))
}

// ribs lists the VRF's RIBs in artifact order.
func (vs *VRFState) ribs() [5]*routing.RIB {
	return [5]*routing.RIB{vs.ConnRIB, vs.StatRIB, vs.OSPFRIB, vs.BGPRIB, vs.Main}
}

// decoder reads an artifact body. The first error sticks and empties
// the input, so every later read returns zero values and every later
// count is zero.
type decoder struct {
	b     []byte
	err   error
	strs  []string
	attrs []routing.BGPAttrs
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("dataplane: unmarshal: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or malformed varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) u32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("value %d overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

// int reads a non-negative int bounded to 31 bits, so it fits any int.
func (d *decoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) u8() uint8 {
	if len(d.b) < 1 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) addr() ip4.Addr {
	if len(d.b) < 4 {
		d.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return ip4.Addr(v)
}

func (d *decoder) prefix() ip4.Prefix {
	p := ip4.Prefix{Addr: d.addr(), Len: d.u8()}
	if p.Len > 32 || p != p.Canonical() {
		d.fail("bad prefix %v/%d", p.Addr, p.Len)
		return ip4.Prefix{}
	}
	return p
}

// count reads an element count whose elements take at least minBytes
// each, and fails unless that many fit in the input that remains.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/minBytes) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	i := d.uvarint()
	if i >= uint64(len(d.strs)) {
		d.fail("string index %d out of range", i)
		return ""
	}
	return d.strs[i]
}

// stringTable reads the string table into substrings of one allocation.
func (d *decoder) stringTable() {
	n := d.count(minString)
	lens := d.b
	total := uint64(0)
	for i := 0; i < n; i++ {
		total += d.uvarint()
		if total > uint64(len(d.b)) {
			d.fail("string table overruns the input")
		}
		if d.err != nil {
			return
		}
	}
	blob := string(d.b[:total])
	d.b = d.b[total:]
	d.strs = make([]string, n)
	off := uint64(0)
	for i := range d.strs {
		l, k := binary.Uvarint(lens)
		lens = lens[k:]
		d.strs[i] = blob[off : off+l]
		off += l
	}
}

// attrTable reads the attribute table into one arena; decoded routes
// point into it.
func (d *decoder) attrTable() {
	d.attrs = make([]routing.BGPAttrs, d.count(minAttrs))
	for i := range d.attrs {
		a := routing.BGPAttrs{
			AdminDistance: d.u8(),
			Origin:        routing.Origin(d.u8()),
			SrcProtocol:   routing.Protocol(d.u8()),
			LocalPref:     d.u32(),
			MED:           d.u32(),
			Weight:        d.u32(),
		}
		var pathOK, commOK bool
		a.ASPath, pathOK = routing.ASPathFromPacked(d.str())
		a.Communities, commOK = routing.CommunitySetFromPacked(d.str())
		if !pathOK || !commOK {
			d.fail("attribute %d: malformed AS path or community set", i)
		}
		a.OriginatorID = d.addr()
		a.FromAS = d.u32()
		a.ReceivedFrom = d.addr()
		a.Tag = d.u32()
		a.IGPMetric = d.u32()
		if d.err != nil {
			return
		}
		d.attrs[i] = a
	}
}

// rib decodes one RIB's best routes and loads them into rib.
func (d *decoder) rib(rib *routing.RIB) {
	routes := make([]routing.Route, d.count(minRoute))
	for i := range routes {
		rt := &routes[i]
		h := d.u8()
		rt.Protocol = routing.Protocol(h & 0x0f)
		rt.Drop = h&routeDrop != 0
		rt.Prefix = d.prefix()
		if h&routeNextHop != 0 {
			rt.NextHop = d.addr()
		}
		rt.NextHopIface = d.str()
		rt.NextHopNode = d.str()
		rt.Metric = d.u32()
		rt.AD = d.u8()
		rt.Tag = d.u32()
		rt.Area = d.u32()
		if h&routeAttrs != 0 {
			ai := d.uvarint()
			if ai >= uint64(len(d.attrs)) {
				d.fail("attribute index %d out of range", ai)
				return
			}
			rt.Attrs = &d.attrs[ai]
		}
		// The computed clock: the artifact records it so its bytes pin
		// the run's clock draws, but Load stamps its own.
		d.uvarint()
		if d.err != nil {
			return
		}
	}
	if err := rib.Load(routes); err != nil {
		d.fail("%v", err)
	}
}

func (d *decoder) fib() *fib.FIB {
	f := fib.New()
	n := d.count(minFIBEntry)
	for i := 0; i < n && d.err == nil; i++ {
		p := d.prefix()
		nhs := make([]fib.NextHop, d.count(minNextHop))
		for j := range nhs {
			nh := &nhs[j]
			fl := d.u8()
			nh.Drop = fl&nhDrop != 0
			nh.Iface = d.str()
			if fl&nhIP != 0 {
				nh.IP = d.addr()
			}
			nh.Node = d.str()
		}
		f.Add(fib.Entry{Prefix: p, NextHops: nhs})
	}
	return f
}

// UnmarshalResult rebuilds a live Result from MarshalResult bytes,
// re-linked to net — the parsed network the result was computed from,
// which the data-plane cache key identifies. The rebuilt result answers
// every post-convergence consumer identically: best-route sets, FIB
// lookups, node fingerprints, session status, and the inferred topology
// all match the originally computed result. Malformed, truncated, old-
// format and foreign-network artifacts return an error.
func UnmarshalResult(b []byte, net *config.Network) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("dataplane: unmarshal without a network")
	}
	if len(b) < len(artifactMagic)+4 || string(b[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("dataplane: unmarshal: not a data-plane artifact")
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, artifactCRC) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("dataplane: unmarshal: checksum mismatch")
	}
	d := &decoder{b: body[len(artifactMagic):]}
	if v := d.uvarint(); v != persistVersion {
		return nil, fmt.Errorf("dataplane: artifact version %d, want %d", v, persistVersion)
	}
	d.stringTable()
	d.attrTable()
	r := &Result{Network: net, Pool: routing.NewPool()}
	d.meta(r)
	r.Topology = topo.Infer(net).Mask(r.Suppress.Links, r.Suppress.Nodes)
	d.nodes(r)
	d.sessions(r)
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

func (d *decoder) meta(r *Result) {
	f := d.u8()
	r.Converged = f&metaConverged != 0
	r.Oscillation = f&metaOscillation != 0
	if f&metaCycle != 0 {
		r.Cycle = &CycleInfo{Protocol: d.str(), FirstIteration: d.int(),
			RepeatIteration: d.int(), StateHash: d.uvarint()}
	}
	r.IGPIterations = d.int()
	r.BGPIterations = d.int()
	r.OuterRounds = d.int()
	if n := d.count(minString); n > 0 {
		r.Warnings = make([]string, n)
		for i := range r.Warnings {
			r.Warnings[i] = d.str()
		}
	}
	sup := &r.Suppress
	if n := d.count(minLink); n > 0 {
		sup.Links = make([]topo.Link, n)
		for i := range sup.Links {
			sup.Links[i] = topo.Link{Node1: d.str(), Iface1: d.str(), Node2: d.str(), Iface2: d.str()}
		}
	}
	if n := d.count(minString); n > 0 {
		sup.Nodes = make([]string, n)
		for i := range sup.Nodes {
			sup.Nodes[i] = d.str()
		}
	}
	if n := d.count(minSupSess); n > 0 {
		sup.Sessions = make([]SessionKey, n)
		for i := range sup.Sessions {
			sup.Sessions[i] = SessionKey{Node1: d.str(), IP1: d.addr(), Node2: d.str(), IP2: d.addr()}
		}
	}
	if n := d.count(minPrefix); n > 0 {
		r.Scope = make(Scope, n)
		for i := range r.Scope {
			r.Scope[i] = d.prefix()
		}
	}
}

// nodes rebuilds every NodeState. Node and VRF names must be strictly
// ascending (the encoder's order), which also rules out duplicates.
func (d *decoder) nodes(r *Result) {
	// One clock for the whole result, drawn in node, VRF and RIB order
	// (TestRIBLoadMatchesMerge pins the stamps).
	clock := &routing.Clock{}
	n := d.count(minNode)
	r.Nodes = make(map[string]*NodeState, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		dev := r.Network.Devices[name]
		if dev == nil || (i > 0 && name <= prev) {
			d.fail("node %q not in the network or out of order", name)
			return
		}
		prev = name
		nv := d.count(minVRF)
		ns := &NodeState{Device: dev, VRFs: make(map[string]*VRFState, nv), vrfNames: make([]string, 0, nv)}
		for j := 0; j < nv && d.err == nil; j++ {
			vn := d.str()
			if j > 0 && vn <= ns.vrfNames[j-1] {
				d.fail("node %s: VRF %q out of order", name, vn)
				return
			}
			f := d.u8()
			// A zero-options engine shell builds the RIBs the simulation
			// would, the BGP one with the engine's comparator (clocks
			// enabled), so any later merge ranks as it would there.
			vs := (&Engine{}).newVRFState(vn, clock)
			vs.multipathEBGP = f&vrfMultipathEBGP != 0
			vs.multipathIBGP = f&vrfMultipathIBGP != 0
			for _, rib := range vs.ribs() {
				d.rib(rib)
			}
			if f&vrfFIB != 0 {
				vs.FIB = d.fib()
			}
			ns.VRFs[vn] = vs
			ns.vrfNames = append(ns.vrfNames, vn)
		}
		r.Nodes[name] = ns
	}
}

func (d *decoder) sessions(r *Result) {
	n := d.count(minSession)
	if n == 0 {
		return
	}
	arena := make([]Session, n)
	r.Sessions = make([]*Session, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s := &arena[i]
		f := d.u8()
		s.EBGP, s.Up = f&sessEBGP != 0, f&sessUp != 0
		s.LocalNode, s.LocalVRF = d.str(), d.str()
		s.LocalIP, s.LocalAS = d.addr(), d.u32()
		s.PeerNode, s.PeerVRF = d.str(), d.str()
		s.PeerIP, s.PeerAS = d.addr(), d.u32()
		s.DownReason = d.str()
		if nb := d.uvarint(); nb > 0 {
			var cv *config.VRF
			if dev := r.Network.Devices[s.LocalNode]; dev != nil {
				cv = dev.VRFs[s.LocalVRF]
			}
			if cv == nil || cv.BGP == nil || nb > uint64(len(cv.BGP.Neighbors)) {
				d.fail("session %d: neighbor %d not in the network", i, nb)
				return
			}
			s.Neighbor = cv.BGP.Neighbors[nb-1]
		}
		r.Sessions = append(r.Sessions, s)
		if ns := r.Nodes[s.LocalNode]; ns != nil {
			if vs := ns.VRFs[s.LocalVRF]; vs != nil {
				vs.Sessions = append(vs.Sessions, s)
			}
		}
	}
}
