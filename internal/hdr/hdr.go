// Package hdr defines the packet-header variable layout and the encoding of
// packet sets and packet transformations as BDDs.
//
// The layout follows the paper (§4.2.2) exactly:
//
//   - fields are ordered by how frequently real configurations constrain
//     them — Destination IP, Source IP, Destination Port, Source Port, ICMP
//     Code, ICMP Type, IP Protocol, then the less-used TCP Flags, Packet
//     Length, DSCP, ECN, and Fragment Offset;
//   - within a field, the most significant bit comes first;
//   - the four transformed fields (the IPs and ports, 96 bits) carry a
//     second, primed copy of each variable, interleaved with the unprimed
//     one, so that transformation relations stay small and renaming primed
//     to unprimed is order-preserving;
//   - this yields 261 network-independent base variables; a handful of
//     extension variables (firewall zones, waypoints — "0–6 in the
//     real-world networks evaluated", §4.2.2) are allocated after them.
//
// Panic policy: like package bdd, this package panics only on violated
// library invariants — a layout that does not produce the expected
// variable count, an extension variable beyond the allocated range, an
// unknown Field, or transforming a non-transformable field. None are
// reachable from user configuration input; the failure-containment layer
// in internal/core recovers them at stage boundaries as a backstop.
package hdr

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ip4"
)

// Field identifies a packet-header field.
type Field int

// Header fields in the paper's variable order.
const (
	DstIP Field = iota
	SrcIP
	DstPort
	SrcPort
	IcmpCode
	IcmpType
	Protocol
	TCPFlags
	Length
	DSCP
	ECN
	FragOffset
	numFields
)

var fieldNames = [numFields]string{
	"dstIp", "srcIp", "dstPort", "srcPort", "icmpCode", "icmpType",
	"ipProtocol", "tcpFlags", "packetLength", "dscp", "ecn", "fragmentOffset",
}

func (f Field) String() string { return fieldNames[f] }

// Width returns the field's width in bits.
func (f Field) Width() int { return fieldWidths[f] }

var fieldWidths = [numFields]int{32, 32, 16, 16, 8, 8, 8, 8, 16, 6, 2, 13}

// transformed reports whether the field carries primed (output) variables.
func (f Field) transformed() bool {
	return f == DstIP || f == SrcIP || f == DstPort || f == SrcPort
}

// Well-known IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP flag bit positions within the TCPFlags field (MSB-first field
// encoding: bit 0 is the MSB). We store flags as CWR,ECE,URG,ACK,PSH,RST,
// SYN,FIN matching the wire order of the TCP header's flag byte.
const (
	FlagCWR = 1 << 7
	FlagECE = 1 << 6
	FlagURG = 1 << 5
	FlagACK = 1 << 4
	FlagPSH = 1 << 3
	FlagRST = 1 << 2
	FlagSYN = 1 << 1
	FlagFIN = 1 << 0
)

// BaseVars is the number of network-independent variables (paper §4.2.2).
const BaseVars = 261

// Layout assigns BDD variable indices to header bits.
type Layout struct {
	varOf      [numFields][]int // varOf[f][bit], bit 0 = MSB
	primeOf    [numFields][]int // primed copies, transformed fields only
	extBase    int
	extBits    int
	totalVars  int
	transVS    []int // unprimed vars of transformed fields (for RelProd)
	unprimeMap map[int]int
	primeMap   map[int]int
}

// NewLayout builds the paper's layout plus extBits extension variables.
func NewLayout(extBits int) *Layout {
	l := &Layout{extBits: extBits}
	l.unprimeMap = make(map[int]int)
	l.primeMap = make(map[int]int)
	next := 0
	for f := Field(0); f < numFields; f++ {
		w := fieldWidths[f]
		l.varOf[f] = make([]int, w)
		if f.transformed() {
			l.primeOf[f] = make([]int, w)
			for b := 0; b < w; b++ {
				l.varOf[f][b] = next
				l.primeOf[f][b] = next + 1
				l.unprimeMap[next+1] = next
				l.primeMap[next] = next + 1
				l.transVS = append(l.transVS, next)
				next += 2
			}
		} else {
			for b := 0; b < w; b++ {
				l.varOf[f][b] = next
				next++
			}
		}
	}
	if next != BaseVars {
		panic(fmt.Sprintf("hdr: layout produced %d base vars, want %d", next, BaseVars))
	}
	l.extBase = next
	l.totalVars = next + extBits
	return l
}

// NumVars returns the total variable count (base + extension).
func (l *Layout) NumVars() int { return l.totalVars }

// Var returns the unprimed variable for bit b (0 = MSB) of field f.
func (l *Layout) Var(f Field, b int) int { return l.varOf[f][b] }

// PrimeVar returns the primed (transformation output) variable for bit b of
// transformed field f.
func (l *Layout) PrimeVar(f Field, b int) int { return l.primeOf[f][b] }

// ExtVar returns extension variable i.
func (l *Layout) ExtVar(i int) int {
	if i < 0 || i >= l.extBits {
		panic(fmt.Sprintf("hdr: extension var %d out of %d", i, l.extBits))
	}
	return l.extBase + i
}

// ExtBits returns the number of extension variables.
func (l *Layout) ExtBits() int { return l.extBits }

// Packet is a concrete IPv4 packet header, shared by the traceroute engine,
// concrete ACL evaluation, and example rendering.
type Packet struct {
	DstIP      ip4.Addr
	SrcIP      ip4.Addr
	DstPort    uint16
	SrcPort    uint16
	IcmpCode   uint8
	IcmpType   uint8
	Protocol   uint8
	TCPFlags   uint8
	Length     uint16
	DSCP       uint8
	ECN        uint8
	FragOffset uint16
}

// Get returns the value of field f.
func (p Packet) Get(f Field) uint32 {
	switch f {
	case DstIP:
		return uint32(p.DstIP)
	case SrcIP:
		return uint32(p.SrcIP)
	case DstPort:
		return uint32(p.DstPort)
	case SrcPort:
		return uint32(p.SrcPort)
	case IcmpCode:
		return uint32(p.IcmpCode)
	case IcmpType:
		return uint32(p.IcmpType)
	case Protocol:
		return uint32(p.Protocol)
	case TCPFlags:
		return uint32(p.TCPFlags)
	case Length:
		return uint32(p.Length)
	case DSCP:
		return uint32(p.DSCP)
	case ECN:
		return uint32(p.ECN)
	case FragOffset:
		return uint32(p.FragOffset)
	}
	panic("hdr: bad field")
}

// Set assigns the value of field f.
func (p *Packet) Set(f Field, v uint32) {
	switch f {
	case DstIP:
		p.DstIP = ip4.Addr(v)
	case SrcIP:
		p.SrcIP = ip4.Addr(v)
	case DstPort:
		p.DstPort = uint16(v)
	case SrcPort:
		p.SrcPort = uint16(v)
	case IcmpCode:
		p.IcmpCode = uint8(v)
	case IcmpType:
		p.IcmpType = uint8(v)
	case Protocol:
		p.Protocol = uint8(v)
	case TCPFlags:
		p.TCPFlags = uint8(v)
	case Length:
		p.Length = uint16(v)
	case DSCP:
		p.DSCP = uint8(v)
	case ECN:
		p.ECN = uint8(v)
	case FragOffset:
		p.FragOffset = uint16(v)
	}
}

func (p Packet) String() string {
	s := fmt.Sprintf("%s:%d -> %s:%d proto=%d", p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Protocol)
	if p.Protocol == ProtoICMP {
		s += fmt.Sprintf(" icmp=%d/%d", p.IcmpType, p.IcmpCode)
	}
	if p.Protocol == ProtoTCP && p.TCPFlags != 0 {
		s += fmt.Sprintf(" flags=0x%02x", p.TCPFlags)
	}
	return s
}

// Enc couples a BDD factory with a Layout and provides the packet-set and
// transformation encodings used by the verification engine.
type Enc struct {
	F *bdd.Factory
	L *Layout

	identity   [numFields]bdd.Ref // identity relations, transformed fields
	allIdent   bdd.Ref
	transVS    bdd.VarSet
	unprime    bdd.Perm
	prime      bdd.Perm
	extVS      bdd.VarSet
	fieldCache map[fieldVal]bdd.Ref
}

type fieldVal struct {
	f Field
	v uint32
}

// NewEnc creates an encoder with extBits extension variables.
func NewEnc(extBits int) *Enc {
	l := NewLayout(extBits)
	e := &Enc{L: l, F: bdd.NewFactory(l.NumVars())}
	e.fieldCache = make(map[fieldVal]bdd.Ref)
	e.transVS = e.F.NewVarSet(l.transVS...)
	e.unprime = e.F.NewPerm(l.unprimeMap)
	e.prime = e.F.NewPerm(l.primeMap)
	e.allIdent = bdd.True
	for f := Field(0); f < numFields; f++ {
		if !f.transformed() {
			continue
		}
		id := bdd.True
		for b := 0; b < fieldWidths[f]; b++ {
			x := e.F.Var(l.Var(f, b))
			y := e.F.Var(l.PrimeVar(f, b))
			id = e.F.And(id, e.F.Not(e.F.Xor(x, y)))
		}
		e.identity[f] = id
		e.allIdent = e.F.And(e.allIdent, id)
	}
	if extBits > 0 {
		ext := make([]int, extBits)
		for i := range ext {
			ext[i] = l.ExtVar(i)
		}
		e.extVS = e.F.NewVarSet(ext...)
	}
	return e
}

// FieldEq returns the set of packets whose field f equals v.
func (e *Enc) FieldEq(f Field, v uint32) bdd.Ref {
	key := fieldVal{f, v}
	if r, ok := e.fieldCache[key]; ok {
		return r
	}
	r := bdd.True
	w := fieldWidths[f]
	for b := w - 1; b >= 0; b-- { // build LSB-up so high bits are root-most
		if v&(1<<(w-1-b)) != 0 {
			r = e.F.And(e.F.Var(e.L.Var(f, b)), r)
		} else {
			r = e.F.And(e.F.NVar(e.L.Var(f, b)), r)
		}
	}
	e.fieldCache[key] = r
	return r
}

// FieldGE returns packets with field f >= v.
func (e *Enc) FieldGE(f Field, v uint32) bdd.Ref {
	r := bdd.True
	w := fieldWidths[f]
	for b := w - 1; b >= 0; b-- {
		x := e.F.Var(e.L.Var(f, b))
		if v&(1<<(w-1-b)) != 0 {
			r = e.F.And(x, r)
		} else {
			r = e.F.Or(x, r)
		}
	}
	return r
}

// FieldLE returns packets with field f <= v.
func (e *Enc) FieldLE(f Field, v uint32) bdd.Ref {
	r := bdd.True
	w := fieldWidths[f]
	for b := w - 1; b >= 0; b-- {
		nx := e.F.NVar(e.L.Var(f, b))
		if v&(1<<(w-1-b)) != 0 {
			r = e.F.Or(nx, r)
		} else {
			r = e.F.And(nx, r)
		}
	}
	return r
}

// FieldRange returns packets with lo <= field f <= hi.
func (e *Enc) FieldRange(f Field, lo, hi uint32) bdd.Ref {
	if lo > hi {
		return bdd.False
	}
	return e.F.And(e.FieldGE(f, lo), e.FieldLE(f, hi))
}

// Prefix returns packets whose IP field f falls in prefix p.
func (e *Enc) Prefix(f Field, p ip4.Prefix) bdd.Ref {
	r := bdd.True
	a := uint32(p.Canonical().Addr)
	for b := int(p.Len) - 1; b >= 0; b-- {
		if a&(1<<(31-b)) != 0 {
			r = e.F.And(e.F.Var(e.L.Var(f, b)), r)
		} else {
			r = e.F.And(e.F.NVar(e.L.Var(f, b)), r)
		}
	}
	return r
}

// TCPFlagSet returns TCP packets with the given flag bit(s) all set.
func (e *Enc) TCPFlagSet(mask uint8) bdd.Ref {
	r := e.FieldEq(Protocol, ProtoTCP)
	for b := 0; b < 8; b++ {
		if mask&(1<<(7-b)) != 0 {
			r = e.F.And(r, e.F.Var(e.L.Var(TCPFlags, b)))
		}
	}
	return r
}

// PacketBDD returns the singleton set containing exactly p (over all base
// unprimed variables).
func (e *Enc) PacketBDD(p Packet) bdd.Ref {
	r := bdd.True
	for f := numFields - 1; f >= 0; f-- {
		r = e.F.And(e.FieldEq(Field(f), p.Get(Field(f))), r)
	}
	return r
}

// PacketFromAssignment extracts a concrete packet from a satisfying
// assignment, treating don't-care bits as zero.
func (e *Enc) PacketFromAssignment(a bdd.Assignment) Packet {
	var p Packet
	for f := Field(0); f < numFields; f++ {
		var v uint32
		w := fieldWidths[f]
		for b := 0; b < w; b++ {
			if a[e.L.Var(f, b)] == 1 {
				v |= 1 << (w - 1 - b)
			}
		}
		p.Set(f, v)
	}
	return p
}

// PickPacket selects a concrete packet from the set r, preferring the given
// constraints in order (paper §4.4.3). Returns false if r is empty.
func (e *Enc) PickPacket(r bdd.Ref, prefs ...bdd.Ref) (Packet, bool) {
	if r == bdd.False {
		return Packet{}, false
	}
	a := e.F.PickPreferring(r, prefs...)
	return e.PacketFromAssignment(a), true
}

// Transform is a packet transformation relation over the primed variables.
// A fresh Transform is the identity on every transformed field.
type Transform struct {
	e   *Enc
	rel bdd.Ref
}

// NewTransform returns the identity transformation.
func (e *Enc) NewTransform() *Transform {
	return &Transform{e: e, rel: e.allIdent}
}

// replaceField swaps field f's identity constraint for out.
func (t *Transform) replaceField(f Field, out bdd.Ref) *Transform {
	if !f.transformed() {
		panic(fmt.Sprintf("hdr: field %v is not transformable", f))
	}
	// Remove f's primed constraint by quantifying its primed vars, then
	// conjoin the new output constraint.
	w := fieldWidths[f]
	vars := make([]int, w)
	for b := 0; b < w; b++ {
		vars[b] = t.e.L.PrimeVar(f, b)
	}
	rel := t.e.F.Exists(t.rel, t.e.F.NewVarSet(vars...))
	t.rel = t.e.F.And(rel, out)
	return t
}

// SetField makes the transformation write constant v to field f.
func (t *Transform) SetField(f Field, v uint32) *Transform {
	out := bdd.True
	w := fieldWidths[f]
	for b := w - 1; b >= 0; b-- {
		pv := t.e.L.PrimeVar(f, b)
		if v&(1<<(w-1-b)) != 0 {
			out = t.e.F.And(t.e.F.Var(pv), out)
		} else {
			out = t.e.F.And(t.e.F.NVar(pv), out)
		}
	}
	return t.replaceField(f, out)
}

// SetFieldPool makes the transformation write any value in [lo, hi] to
// field f (a NAT pool: the output is nondeterministic within the pool).
func (t *Transform) SetFieldPool(f Field, lo, hi uint32) *Transform {
	out := bdd.False
	w := fieldWidths[f]
	ge := bdd.True
	le := bdd.True
	for b := w - 1; b >= 0; b-- {
		x := t.e.F.Var(t.e.L.PrimeVar(f, b))
		nx := t.e.F.NVar(t.e.L.PrimeVar(f, b))
		if lo&(1<<(w-1-b)) != 0 {
			ge = t.e.F.And(x, ge)
		} else {
			ge = t.e.F.Or(x, ge)
		}
		if hi&(1<<(w-1-b)) != 0 {
			le = t.e.F.Or(nx, le)
		} else {
			le = t.e.F.And(nx, le)
		}
	}
	out = t.e.F.And(ge, le)
	return t.replaceField(f, out)
}

// Guarded combines transformations rule-list style: packets matching guard
// take t's transformation; the rest take els's. Guard is over unprimed
// variables.
func (e *Enc) Guarded(guard bdd.Ref, then, els *Transform) *Transform {
	return &Transform{e: e, rel: e.F.ITE(guard, then.rel, els.rel)}
}

// Apply pushes the packet set in through the transformation, using the
// fused RelProd (paper §4.2.3).
func (e *Enc) Apply(in bdd.Ref, t *Transform) bdd.Ref {
	return e.F.RelProd(in, t.rel, e.transVS, e.unprime)
}

// ApplyNaive is the unfused 3-step version, for the ablation benchmark.
func (e *Enc) ApplyNaive(in bdd.Ref, t *Transform) bdd.Ref {
	return e.F.RelProdNaive(in, t.rel, e.transVS, e.unprime)
}

// ReverseApply computes the set of input packets that the transformation
// can map into out — the reverse-BDD step used for backward propagation and
// bidirectional reachability (paper §4.2.3).
func (e *Enc) ReverseApply(out bdd.Ref, t *Transform) bdd.Ref {
	primed := e.F.Replace(out, e.prime)
	// ∃ primed (primed(out) ∧ rel) leaves the unprimed inputs.
	primeVars := make([]int, 0, len(e.L.transVS))
	for _, v := range e.L.transVS {
		primeVars = append(primeVars, v+1)
	}
	return e.F.AndExists(primed, t.rel, e.F.NewVarSet(primeVars...))
}

// SwapSrcDst returns the set with source and destination IPs and ports
// exchanged — the return-flow header set used by bidirectional
// reachability (paper §4.2.3). It applies bitwise variable swaps (a swap
// *relation* between the distant src and dst variable blocks would be
// exponentially large under the fixed order).
func (e *Enc) SwapSrcDst(set bdd.Ref) bdd.Ref {
	for b := 0; b < fieldWidths[DstIP]; b++ {
		set = e.F.SwapVars(set, e.L.Var(DstIP, b), e.L.Var(SrcIP, b))
	}
	for b := 0; b < fieldWidths[DstPort]; b++ {
		set = e.F.SwapVars(set, e.L.Var(DstPort, b), e.L.Var(SrcPort, b))
	}
	return set
}

// SetBit returns the set with extension variable v forced to 1, erasing its
// previous value. Used for waypoint marking (paper §4.2.3).
func (e *Enc) SetBit(set bdd.Ref, v int) bdd.Ref {
	return e.F.And(e.F.Exists(set, e.F.NewVarSet(v)), e.F.Var(v))
}

// ClearExt erases all extension variables from the set (used when a packet
// leaves a firewall's zone scope).
func (e *Enc) ClearExt(set bdd.Ref) bdd.Ref {
	if e.L.extBits == 0 {
		return set
	}
	return e.F.Exists(set, e.extVS)
}

// ExtEq returns the constraint that extension bits [base, base+width)
// encode value v (MSB first).
func (e *Enc) ExtEq(base, width int, v uint32) bdd.Ref {
	r := bdd.True
	for b := width - 1; b >= 0; b-- {
		x := e.L.ExtVar(base + b)
		if v&(1<<(width-1-b)) != 0 {
			r = e.F.And(e.F.Var(x), r)
		} else {
			r = e.F.And(e.F.NVar(x), r)
		}
	}
	return r
}

// ExtVarSet returns the VarSet for extension bits [base, base+width).
func (e *Enc) ExtVarSet(base, width int) bdd.VarSet {
	vars := make([]int, width)
	for i := range vars {
		vars[i] = e.L.ExtVar(base + i)
	}
	return e.F.NewVarSet(vars...)
}
