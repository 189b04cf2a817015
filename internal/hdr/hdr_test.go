package hdr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/ip4"
)

func TestLayoutBaseVars(t *testing.T) {
	l := NewLayout(0)
	if l.NumVars() != BaseVars {
		t.Fatalf("layout has %d vars, want %d", l.NumVars(), BaseVars)
	}
	l6 := NewLayout(6)
	if l6.NumVars() != BaseVars+6 {
		t.Fatalf("layout+6 has %d vars", l6.NumVars())
	}
}

func TestLayoutOrder(t *testing.T) {
	l := NewLayout(0)
	// Paper order: dstIP first, MSB-first within fields.
	if l.Var(DstIP, 0) != 0 {
		t.Error("dstIP MSB must be variable 0")
	}
	if l.PrimeVar(DstIP, 0) != 1 {
		t.Error("dstIP MSB prime must be variable 1 (interleaved)")
	}
	if l.Var(DstIP, 1) != 2 {
		t.Error("dstIP bit 1 must follow its prime pair")
	}
	// dstIP consumes 64 vars, srcIP next.
	if l.Var(SrcIP, 0) != 64 {
		t.Errorf("srcIP base = %d, want 64", l.Var(SrcIP, 0))
	}
	// Fields must be strictly ordered: every var of field f precedes
	// every var of field f+1.
	prev := -1
	for f := Field(0); f < numFields; f++ {
		for b := 0; b < f.Width(); b++ {
			v := l.Var(f, b)
			if v <= prev && !f.transformed() {
				t.Fatalf("field %v bit %d out of order", f, b)
			}
			prev = v
			if f.transformed() {
				prev = l.PrimeVar(f, b)
			}
		}
	}
}

func TestFieldEq(t *testing.T) {
	e := NewEnc(0)
	r := e.FieldEq(Protocol, ProtoTCP)
	// SatCount over all 261 vars: fixing 8 bits leaves 2^253 models.
	want := pow2(261 - 8)
	if got := e.F.SatCount(r); got != want {
		t.Errorf("SatCount = %g, want %g", got, want)
	}
	// Identical calls hit the cache and return identical refs.
	if e.FieldEq(Protocol, ProtoTCP) != r {
		t.Error("FieldEq not cached/canonical")
	}
}

func pow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

func TestFieldRangeSemantics(t *testing.T) {
	e := NewEnc(0)
	check := func(lo16, hi16 uint16, probe uint16) bool {
		lo, hi := uint32(lo16), uint32(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := e.FieldRange(DstPort, lo, hi)
		in := e.F.And(r, e.FieldEq(DstPort, uint32(probe))) != bdd.False
		return in == (uint32(probe) >= lo && uint32(probe) <= hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFieldRangeEmpty(t *testing.T) {
	e := NewEnc(0)
	if e.FieldRange(DstPort, 10, 5) != bdd.False {
		t.Error("inverted range should be empty")
	}
	full := e.FieldRange(DstPort, 0, 65535)
	if full != bdd.True {
		t.Error("full range should be True")
	}
}

func TestPrefixMatch(t *testing.T) {
	e := NewEnc(0)
	p := ip4.MustParsePrefix("10.128.0.0/9")
	r := e.Prefix(DstIP, p)
	inside := e.PacketBDD(Packet{DstIP: ip4.MustParseAddr("10.200.1.1"), Protocol: ProtoTCP})
	outside := e.PacketBDD(Packet{DstIP: ip4.MustParseAddr("10.1.1.1"), Protocol: ProtoTCP})
	if e.F.And(r, inside) == bdd.False {
		t.Error("address inside prefix excluded")
	}
	if e.F.And(r, outside) != bdd.False {
		t.Error("address outside prefix included")
	}
	if e.Prefix(DstIP, ip4.MustParsePrefix("0.0.0.0/0")) != bdd.True {
		t.Error("default route prefix must be True")
	}
}

func TestPrefixSatCount(t *testing.T) {
	e := NewEnc(0)
	check := func(a uint32, l8 uint8) bool {
		plen := int(l8 % 33)
		p := ip4.Prefix{Addr: ip4.Addr(a), Len: uint8(plen)}
		r := e.Prefix(DstIP, p)
		return e.F.SatCount(r) == pow2(261-plen)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPacketBDDRoundTrip(t *testing.T) {
	e := NewEnc(0)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := Packet{
			DstIP:    ip4.Addr(rnd.Uint32()),
			SrcIP:    ip4.Addr(rnd.Uint32()),
			DstPort:  uint16(rnd.Intn(65536)),
			SrcPort:  uint16(rnd.Intn(65536)),
			Protocol: uint8(rnd.Intn(256)),
			IcmpCode: uint8(rnd.Intn(256)),
			IcmpType: uint8(rnd.Intn(256)),
			TCPFlags: uint8(rnd.Intn(256)),
			Length:   uint16(rnd.Intn(65536)),
			DSCP:     uint8(rnd.Intn(64)),
			ECN:      uint8(rnd.Intn(4)),
		}
		set := e.PacketBDD(p)
		got, ok := e.PickPacket(set)
		if !ok {
			t.Fatal("singleton set empty")
		}
		if got != p {
			t.Fatalf("round trip: got %+v want %+v", got, p)
		}
	}
}

func TestTransformSetField(t *testing.T) {
	e := NewEnc(0)
	natIP := ip4.MustParseAddr("100.64.0.1")
	tr := e.NewTransform().SetField(SrcIP, uint32(natIP))
	in := e.PacketBDD(Packet{
		SrcIP: ip4.MustParseAddr("192.168.1.5"), DstIP: ip4.MustParseAddr("8.8.8.8"),
		Protocol: ProtoUDP, SrcPort: 5353, DstPort: 53,
	})
	out := e.Apply(in, tr)
	p, ok := e.PickPacket(out)
	if !ok {
		t.Fatal("empty output set")
	}
	if p.SrcIP != natIP {
		t.Errorf("srcIP not translated: %v", p.SrcIP)
	}
	if p.DstIP != ip4.MustParseAddr("8.8.8.8") || p.DstPort != 53 || p.SrcPort != 5353 {
		t.Errorf("untouched fields changed: %+v", p)
	}
}

func TestTransformIdentity(t *testing.T) {
	e := NewEnc(0)
	id := e.NewTransform()
	in := e.F.And(e.Prefix(DstIP, ip4.MustParsePrefix("10.0.0.0/8")), e.FieldEq(Protocol, ProtoTCP))
	if e.Apply(in, id) != in {
		t.Error("identity transform changed the set")
	}
}

func TestTransformPool(t *testing.T) {
	e := NewEnc(0)
	lo := uint32(ip4.MustParseAddr("100.64.0.1"))
	hi := uint32(ip4.MustParseAddr("100.64.0.10"))
	tr := e.NewTransform().SetFieldPool(SrcIP, lo, hi)
	in := e.PacketBDD(Packet{SrcIP: ip4.MustParseAddr("192.168.0.9"), DstIP: ip4.MustParseAddr("1.1.1.1"), Protocol: ProtoTCP})
	out := e.Apply(in, tr)
	// Output srcIP must be exactly the pool.
	got := e.F.Exists(out, srcIPVarSet(e))
	wantDst := e.F.Exists(in, srcIPVarSet(e))
	if got != wantDst {
		t.Error("non-srcIP fields must be unchanged")
	}
	poolSet := e.F.And(out, e.FieldRange(SrcIP, lo, hi))
	if poolSet != out {
		t.Error("output srcIP outside pool")
	}
	if e.F.And(out, e.FieldEq(SrcIP, lo)) == bdd.False || e.F.And(out, e.FieldEq(SrcIP, hi)) == bdd.False {
		t.Error("pool endpoints unreachable")
	}
}

func srcIPVarSet(e *Enc) bdd.VarSet {
	vars := make([]int, 32)
	for b := 0; b < 32; b++ {
		vars[b] = e.L.Var(SrcIP, b)
	}
	return e.F.NewVarSet(vars...)
}

func TestGuardedTransform(t *testing.T) {
	e := NewEnc(0)
	guard := e.Prefix(SrcIP, ip4.MustParsePrefix("192.168.0.0/16"))
	nat := e.NewTransform().SetField(SrcIP, uint32(ip4.MustParseAddr("100.64.0.1")))
	tr := e.Guarded(guard, nat, e.NewTransform())
	inside := e.PacketBDD(Packet{SrcIP: ip4.MustParseAddr("192.168.3.3"), DstIP: ip4.MustParseAddr("9.9.9.9"), Protocol: ProtoTCP})
	outside := e.PacketBDD(Packet{SrcIP: ip4.MustParseAddr("172.16.3.3"), DstIP: ip4.MustParseAddr("9.9.9.9"), Protocol: ProtoTCP})
	pi, _ := e.PickPacket(e.Apply(inside, tr))
	po, _ := e.PickPacket(e.Apply(outside, tr))
	if pi.SrcIP != ip4.MustParseAddr("100.64.0.1") {
		t.Errorf("guarded NAT not applied: %v", pi.SrcIP)
	}
	if po.SrcIP != ip4.MustParseAddr("172.16.3.3") {
		t.Errorf("non-matching packet translated: %v", po.SrcIP)
	}
}

func TestApplyFusedMatchesNaive(t *testing.T) {
	e := NewEnc(0)
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		tr := e.NewTransform().
			SetField(SrcIP, rnd.Uint32()).
			SetFieldPool(SrcPort, 1024, 65535)
		in := e.F.And(
			e.Prefix(SrcIP, ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(rnd.Intn(25))}),
			e.FieldEq(Protocol, ProtoTCP))
		if e.Apply(in, tr) != e.ApplyNaive(in, tr) {
			t.Fatal("fused Apply disagrees with naive pipeline")
		}
	}
}

func TestReverseApply(t *testing.T) {
	e := NewEnc(0)
	natIP := ip4.MustParseAddr("100.64.0.1")
	guard := e.Prefix(SrcIP, ip4.MustParsePrefix("192.168.0.0/16"))
	tr := e.Guarded(guard, e.NewTransform().SetField(SrcIP, uint32(natIP)), e.NewTransform())
	// What inputs can produce srcIP == natIP? All of 192.168/16 (NATed)
	// plus natIP itself passing through the identity branch.
	out := e.FieldEq(SrcIP, uint32(natIP))
	in := e.ReverseApply(out, tr)
	if e.F.And(in, e.FieldEq(SrcIP, uint32(ip4.MustParseAddr("192.168.9.9")))) == bdd.False {
		t.Error("NATed source missing from reverse image")
	}
	if e.F.And(in, e.FieldEq(SrcIP, uint32(natIP))) == bdd.False {
		t.Error("identity pass-through missing from reverse image")
	}
	if e.F.And(in, e.FieldEq(SrcIP, uint32(ip4.MustParseAddr("10.0.0.1")))) != bdd.False {
		t.Error("impossible source present in reverse image")
	}
}

func TestForwardReverseGalois(t *testing.T) {
	// For any transform and input set: in ⊆ ReverseApply(Apply(in)).
	e := NewEnc(0)
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		tr := e.Guarded(
			e.Prefix(SrcIP, ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(rnd.Intn(17))}),
			e.NewTransform().SetField(SrcIP, rnd.Uint32()),
			e.NewTransform())
		in := e.Prefix(DstIP, ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(rnd.Intn(17))})
		fwd := e.Apply(in, tr)
		back := e.ReverseApply(fwd, tr)
		if !e.F.Implies(in, back) {
			t.Fatal("in not contained in reverse image of forward image")
		}
	}
}

func TestExtensionBits(t *testing.T) {
	e := NewEnc(4)
	set := e.Prefix(DstIP, ip4.MustParsePrefix("10.0.0.0/8"))
	z1 := e.F.And(set, e.ExtEq(0, 2, 1)) // zone 1 in 2 bits
	if e.F.And(z1, e.ExtEq(0, 2, 2)) != bdd.False {
		t.Error("distinct zone values must be disjoint")
	}
	cleared := e.ClearExt(z1)
	if cleared != set {
		t.Error("ClearExt should recover the zone-free set")
	}
	wp := e.SetBit(set, e.L.ExtVar(3))
	if e.F.Exists(wp, e.F.NewVarSet(e.L.ExtVar(3))) != set {
		t.Error("SetBit changed the header part")
	}
	if e.F.And(wp, e.F.NVar(e.L.ExtVar(3))) != bdd.False {
		t.Error("SetBit did not force the bit")
	}
}

func TestTCPFlagSet(t *testing.T) {
	e := NewEnc(0)
	syn := e.TCPFlagSet(FlagSYN)
	p, ok := e.PickPacket(syn)
	if !ok || p.Protocol != ProtoTCP || p.TCPFlags&FlagSYN == 0 {
		t.Errorf("SYN pick wrong: %+v", p)
	}
	synAck := e.TCPFlagSet(FlagSYN | FlagACK)
	if !e.F.Implies(synAck, syn) {
		t.Error("SYN+ACK must be a subset of SYN")
	}
}

func TestPickPacketPreferences(t *testing.T) {
	e := NewEnc(0)
	set := e.Prefix(DstIP, ip4.MustParsePrefix("10.0.0.0/8"))
	p, ok := e.PickPacket(set,
		e.FieldEq(Protocol, ProtoTCP),
		e.FieldEq(DstPort, 80),
		e.FieldGE(SrcPort, 1024),
	)
	if !ok {
		t.Fatal("pick failed")
	}
	if p.Protocol != ProtoTCP || p.DstPort != 80 || p.SrcPort < 1024 {
		t.Errorf("preferences not honored: %+v", p)
	}
	if !ip4.MustParsePrefix("10.0.0.0/8").Contains(p.DstIP) {
		t.Errorf("picked packet outside set: %+v", p)
	}
}

func TestFieldString(t *testing.T) {
	if DstIP.String() != "dstIp" || FragOffset.String() != "fragmentOffset" {
		t.Error("field names wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{SrcIP: ip4.MustParseAddr("1.2.3.4"), DstIP: ip4.MustParseAddr("5.6.7.8"), Protocol: ProtoICMP, IcmpType: 8}
	if p.String() == "" {
		t.Error("empty string")
	}
}

func TestSwapSrcDst(t *testing.T) {
	e := NewEnc(0)
	set := e.F.AndN(
		e.Prefix(DstIP, ip4.MustParsePrefix("10.2.0.0/24")),
		e.Prefix(SrcIP, ip4.MustParsePrefix("10.1.0.0/24")),
		e.FieldEq(DstPort, 80),
		e.FieldGE(SrcPort, 1024),
		e.FieldEq(Protocol, ProtoTCP),
	)
	sw := e.F.AndN(
		e.Prefix(SrcIP, ip4.MustParsePrefix("10.2.0.0/24")),
		e.Prefix(DstIP, ip4.MustParsePrefix("10.1.0.0/24")),
		e.FieldEq(SrcPort, 80),
		e.FieldGE(DstPort, 1024),
		e.FieldEq(Protocol, ProtoTCP),
	)
	if e.SwapSrcDst(set) != sw {
		t.Error("SwapSrcDst wrong")
	}
	// Involution.
	if e.SwapSrcDst(e.SwapSrcDst(set)) != set {
		t.Error("SwapSrcDst not involutive")
	}
}

// TestPickPacketPinned pins PickPacket's witness for fixed sets and
// preferences, so a change to how witnesses are extracted cannot move the
// examples that question answers and rendering goldens show. The packets
// were recorded from the map-based assignment this package used before
// the slice one.
func TestPickPacketPinned(t *testing.T) {
	e := NewEnc(6)
	f := e.F
	pfx := func(fl Field, s string) bdd.Ref { return e.Prefix(fl, ip4.MustParsePrefix(s)) }
	prefs := []bdd.Ref{
		e.FieldEq(Protocol, ProtoTCP),
		e.FieldEq(DstPort, 80),
		e.FieldGE(SrcPort, 1024),
		e.FieldEq(TCPFlags, FlagSYN),
	}
	cases := []struct {
		name  string
		set   bdd.Ref
		prefs []bdd.Ref
		want  Packet
	}{
		{"dst-prefix", pfx(DstIP, "10.1.2.128/25"), prefs,
			Packet{DstIP: 0xa010280, DstPort: 80, SrcPort: 1024, Protocol: ProtoTCP, TCPFlags: FlagSYN}},
		{"no-prefs", f.And(pfx(DstIP, "10.1.2.128/25"), pfx(SrcIP, "172.16.0.0/12")), nil,
			Packet{DstIP: 0xa010280, SrcIP: 0xac100000}},
		{"udp-only", f.AndN(pfx(DstIP, "192.168.4.0/22"), e.FieldEq(Protocol, 17), e.FieldRange(DstPort, 53, 60)), prefs,
			Packet{DstIP: 0xc0a80400, DstPort: 53, SrcPort: 1024, Protocol: 17, TCPFlags: FlagSYN}},
		{"not-tcp-low-src", f.AndN(pfx(SrcIP, "10.9.0.0/16"), f.Not(e.FieldEq(Protocol, ProtoTCP)), e.FieldLE(SrcPort, 100)), prefs,
			Packet{SrcIP: 0xa090000, DstPort: 80, TCPFlags: FlagSYN}},
		{"port-hole", f.Diff(pfx(DstIP, "10.0.0.0/8"), f.Or(e.FieldEq(DstPort, 80), pfx(DstIP, "10.0.0.0/9"))), prefs,
			Packet{DstIP: 0xa800000, SrcPort: 1024, Protocol: ProtoTCP, TCPFlags: FlagSYN}},
		{"with-ext", f.AndN(pfx(DstIP, "10.3.0.0/16"), e.ExtEq(0, 4, 5), e.TCPFlagSet(FlagACK)), prefs,
			Packet{DstIP: 0xa030000, DstPort: 80, SrcPort: 1024, Protocol: ProtoTCP, TCPFlags: FlagACK}},
	}
	for _, c := range cases {
		p, ok := e.PickPacket(c.set, c.prefs...)
		if !ok || p != c.want {
			t.Errorf("%s: picked %#v (found %v), want %#v", c.name, p, ok, c.want)
		}
	}
	if _, ok := e.PickPacket(bdd.False, prefs...); ok {
		t.Error("PickPacket(False) found a packet")
	}
}
