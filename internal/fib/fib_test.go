package fib

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ip4"
	"repro/internal/routing"
)

func entry(p string, iface string) Entry {
	return Entry{Prefix: ip4.MustParsePrefix(p), NextHops: []NextHop{{Iface: iface}}}
}

func TestLookupLPM(t *testing.T) {
	f := New()
	f.Add(entry("0.0.0.0/0", "default"))
	f.Add(entry("10.0.0.0/8", "eight"))
	f.Add(entry("10.1.0.0/16", "sixteen"))
	f.Add(entry("10.1.2.0/24", "twentyfour"))
	cases := map[string]string{
		"10.1.2.3":    "twentyfour",
		"10.1.3.1":    "sixteen",
		"10.200.0.1":  "eight",
		"192.168.1.1": "default",
	}
	for addr, want := range cases {
		e := f.Lookup(ip4.MustParseAddr(addr))
		if e == nil || e.NextHops[0].Iface != want {
			t.Errorf("Lookup(%s) = %v, want %s", addr, e, want)
		}
	}
}

func TestLookupNoDefault(t *testing.T) {
	f := New()
	f.Add(entry("10.0.0.0/8", "x"))
	if e := f.Lookup(ip4.MustParseAddr("11.0.0.1")); e != nil {
		t.Errorf("miss should return nil, got %v", e)
	}
}

func TestAddReplaces(t *testing.T) {
	f := New()
	f.Add(entry("10.0.0.0/8", "a"))
	f.Add(entry("10.0.0.0/8", "b"))
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
	if e := f.Lookup(ip4.MustParseAddr("10.1.1.1")); e.NextHops[0].Iface != "b" {
		t.Error("replace failed")
	}
}

func TestHostRoutes(t *testing.T) {
	f := New()
	f.Add(entry("10.0.0.1/32", "host"))
	f.Add(entry("10.0.0.0/24", "net"))
	if e := f.Lookup(ip4.MustParseAddr("10.0.0.1")); e.NextHops[0].Iface != "host" {
		t.Error("host route not preferred")
	}
	if e := f.Lookup(ip4.MustParseAddr("10.0.0.2")); e.NextHops[0].Iface != "net" {
		t.Error("net route not used")
	}
}

// TestLPMMatchesLinearScan is the property test: trie lookup must agree
// with a brute-force longest-prefix scan on random tables.
func TestLPMMatchesLinearScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		f := New()
		var entries []Entry
		for i := 0; i < 300; i++ {
			p := ip4.Prefix{Addr: ip4.Addr(rnd.Uint32()), Len: uint8(rnd.Intn(33))}.Canonical()
			e := Entry{Prefix: p, NextHops: []NextHop{{Iface: p.String()}}}
			f.Add(e)
			// Mirror replacement semantics in the linear model.
			replaced := false
			for j := range entries {
				if entries[j].Prefix == p {
					entries[j] = e
					replaced = true
				}
			}
			if !replaced {
				entries = append(entries, e)
			}
		}
		for i := 0; i < 2000; i++ {
			addr := ip4.Addr(rnd.Uint32())
			if rnd.Intn(2) == 0 && len(entries) > 0 {
				// Bias probes toward table prefixes.
				addr = entries[rnd.Intn(len(entries))].Prefix.Addr | ip4.Addr(rnd.Uint32()&0xff)
			}
			var want *Entry
			for j := range entries {
				if entries[j].Prefix.Contains(addr) {
					if want == nil || entries[j].Prefix.Len > want.Prefix.Len {
						want = &entries[j]
					}
				}
			}
			got := f.Lookup(addr)
			switch {
			case want == nil && got != nil:
				t.Fatalf("Lookup(%s) = %v, want miss", addr, got)
			case want != nil && got == nil:
				t.Fatalf("Lookup(%s) = miss, want %v", addr, want.Prefix)
			case want != nil && got.Prefix != want.Prefix:
				t.Fatalf("Lookup(%s) = %v, want %v", addr, got.Prefix, want.Prefix)
			}
		}
	}
}

// TestExactMatchesScan checks Exact against a scan of Entries on random
// tries: a query finds the entry with exactly its prefix, or nil when
// only supernets or subnets of it have entries.
func TestExactMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	randPrefix := func() ip4.Prefix {
		return ip4.Prefix{Addr: ip4.Addr(10<<24 | rnd.Uint32()&0xffff), Len: uint8(8 + rnd.Intn(25))}.Canonical()
	}
	for trial := 0; trial < 20; trial++ {
		f := New()
		for i := 0; i < 200; i++ {
			p := randPrefix()
			f.Add(Entry{Prefix: p, NextHops: []NextHop{{Iface: p.String()}}})
		}
		all := f.Entries()
		queries := make([]ip4.Prefix, 0, 400)
		for _, e := range all {
			queries = append(queries, e.Prefix)
		}
		for i := 0; i < 200; i++ {
			queries = append(queries, randPrefix())
		}
		for _, q := range queries {
			var want *Entry
			for i := range all {
				if all[i].Prefix == q {
					want = &all[i]
				}
			}
			got := f.Exact(q)
			if (got == nil) != (want == nil) || got != nil && fmt.Sprint(*got) != fmt.Sprint(*want) {
				t.Fatalf("Exact(%v) = %v, want %v", q, got, want)
			}
		}
	}
}

func TestEntriesSortedAndComplete(t *testing.T) {
	f := New()
	ps := []string{"10.0.0.0/8", "0.0.0.0/0", "10.1.0.0/16", "172.16.0.0/12", "10.0.0.0/24"}
	for _, p := range ps {
		f.Add(entry(p, p))
	}
	es := f.Entries()
	if len(es) != len(ps) {
		t.Fatalf("Entries = %d, want %d", len(es), len(ps))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Prefix.Compare(es[i].Prefix) >= 0 {
			t.Fatal("entries not sorted")
		}
	}
}

func TestECMPNextHopsSorted(t *testing.T) {
	f := New()
	f.Add(Entry{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), NextHops: []NextHop{
		{Iface: "eth2", IP: 2}, {Iface: "eth1", IP: 1},
	}})
	e := f.Lookup(ip4.MustParseAddr("10.0.0.1"))
	if e.NextHops[0].Iface != "eth1" || e.NextHops[1].Iface != "eth2" {
		t.Error("next hops not canonically sorted")
	}
}

func ribWith(routes ...routing.Route) *routing.RIB {
	r := routing.NewRIB(routing.MainComparator, &routing.Clock{})
	for _, rt := range routes {
		r.Merge(rt)
	}
	return r
}

func TestBuildFromRIBDirect(t *testing.T) {
	rib := ribWith(
		routing.Route{Prefix: ip4.MustParsePrefix("10.0.0.0/24"), Protocol: routing.Connected, NextHopIface: "eth0"},
		routing.Route{Prefix: ip4.MustParsePrefix("10.0.1.0/24"), Protocol: routing.OSPF, AD: 110,
			NextHop: ip4.MustParseAddr("10.0.0.2")},
	)
	res := Resolver{
		IfaceForConnected: func(a ip4.Addr) (string, bool) {
			if ip4.MustParsePrefix("10.0.0.0/24").Contains(a) {
				return "eth0", true
			}
			return "", false
		},
		NodeForNextHop: func(iface string, nh ip4.Addr) string { return "r2" },
	}
	f, unresolved := BuildFromRIB(rib, res)
	if len(unresolved) != 0 {
		t.Fatalf("unresolved: %v", unresolved)
	}
	e := f.Lookup(ip4.MustParseAddr("10.0.1.5"))
	if e == nil || e.NextHops[0].Iface != "eth0" || e.NextHops[0].Node != "r2" {
		t.Errorf("ospf route resolution wrong: %v", e)
	}
}

func TestBuildFromRIBRecursive(t *testing.T) {
	// BGP route via loopback 192.0.2.2, reached through OSPF via 10.0.0.1.
	rib := ribWith(
		routing.Route{Prefix: ip4.MustParsePrefix("203.0.113.0/24"), Protocol: routing.IBGP, AD: 200,
			NextHop: ip4.MustParseAddr("192.0.2.2")},
		routing.Route{Prefix: ip4.MustParsePrefix("192.0.2.2/32"), Protocol: routing.OSPF, AD: 110,
			NextHop: ip4.MustParseAddr("10.0.0.1")},
		routing.Route{Prefix: ip4.MustParsePrefix("10.0.0.0/31"), Protocol: routing.Connected, NextHopIface: "eth0"},
	)
	res := Resolver{
		IfaceForConnected: func(a ip4.Addr) (string, bool) {
			if ip4.MustParsePrefix("10.0.0.0/31").Contains(a) {
				return "eth0", true
			}
			return "", false
		},
	}
	f, unresolved := BuildFromRIB(rib, res)
	if len(unresolved) != 0 {
		t.Fatalf("unresolved: %v", unresolved)
	}
	e := f.Lookup(ip4.MustParseAddr("203.0.113.7"))
	if e == nil || e.NextHops[0].Iface != "eth0" || e.NextHops[0].IP != ip4.MustParseAddr("10.0.0.1") {
		t.Errorf("recursive resolution wrong: %v", e)
	}
}

func TestBuildFromRIBUnresolvable(t *testing.T) {
	rib := ribWith(routing.Route{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Protocol: routing.Static, AD: 1,
		NextHop: ip4.MustParseAddr("192.0.2.9")})
	f, unresolved := BuildFromRIB(rib, Resolver{})
	if len(unresolved) != 1 {
		t.Fatalf("want 1 unresolved, got %d", len(unresolved))
	}
	if f.Lookup(ip4.MustParseAddr("10.1.1.1")) != nil {
		t.Error("unresolvable route must not enter the FIB")
	}
}

func TestBuildFromRIBDrop(t *testing.T) {
	rib := ribWith(routing.Route{Prefix: ip4.MustParsePrefix("10.0.0.0/8"), Protocol: routing.Static, AD: 1, Drop: true})
	f, unresolved := BuildFromRIB(rib, Resolver{})
	if len(unresolved) != 0 {
		t.Fatal("drop route should resolve")
	}
	e := f.Lookup(ip4.MustParseAddr("10.1.1.1"))
	if e == nil || !e.NextHops[0].Drop {
		t.Errorf("null route not installed: %v", e)
	}
}

func TestResolveLoopTerminates(t *testing.T) {
	// Two static routes resolving through each other must not loop.
	rib := ribWith(
		routing.Route{Prefix: ip4.MustParsePrefix("1.0.0.0/8"), Protocol: routing.Static, AD: 1,
			NextHop: ip4.MustParseAddr("2.0.0.1")},
		routing.Route{Prefix: ip4.MustParsePrefix("2.0.0.0/8"), Protocol: routing.Static, AD: 1,
			NextHop: ip4.MustParseAddr("1.0.0.1")},
	)
	_, unresolved := BuildFromRIB(rib, Resolver{})
	if len(unresolved) != 2 {
		t.Errorf("mutually recursive routes should be unresolved, got %d", len(unresolved))
	}
}

func TestTrieStructureSharing(t *testing.T) {
	// Root must cover inserted /0 entry.
	f := New()
	f.Add(entry("0.0.0.0/0", "d"))
	if f.Root().Entry == nil {
		t.Error("/0 must land on the root node")
	}
}
