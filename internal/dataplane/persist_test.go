package dataplane_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dataplane"
	"repro/internal/ip4"
	"repro/internal/testnet"
)

// roundTrip marshals a clean result and rebuilds it against the network
// it was computed from, failing the test on any codec error.
func roundTrip(t *testing.T, r *dataplane.Result) *dataplane.Result {
	t.Helper()
	b, err := dataplane.MarshalResult(r)
	if err != nil {
		t.Fatalf("MarshalResult: %v", err)
	}
	got, err := dataplane.UnmarshalResult(b, r.Network)
	if err != nil {
		t.Fatalf("UnmarshalResult: %v", err)
	}
	return got
}

// TestPersistRoundTripFingerprints asserts the rebuilt result is
// indistinguishable from the original through every post-convergence
// consumer surface: per-node fingerprints (covering all RIB best sets and
// FIB entries), session renderings, route listings, and convergence
// metadata, and the query scope of a scoped run.
func TestPersistRoundTripFingerprints(t *testing.T) {
	scope := dataplane.Scope{ip4.MustParsePrefix("203.0.113.128/25"), ip4.MustParsePrefix("10.0.23.0/30")}
	for _, tc := range []struct {
		name string
		net  func() *config.Network
		opts dataplane.Options
	}{
		{"figure2", testnet.Figure2, dataplane.Options{}},
		{"diamond", testnet.Diamond, dataplane.Options{}},
		{"ebgpchain", testnet.EBGPChain, dataplane.Options{}},
		{"ebgpchain-scoped", testnet.EBGPChain, dataplane.Options{Scope: scope}},
		{"ecmp", testnet.ECMPWithBrokenBranch, dataplane.Options{}},
	} {
		name := tc.name
		t.Run(name, func(t *testing.T) {
			r := dataplane.Run(tc.net(), tc.opts)
			if r.Degraded() {
				t.Fatalf("%s: baseline run degraded: %v", name, r.Diags)
			}
			got := roundTrip(t, r)
			if !reflect.DeepEqual(got.Scope, r.Scope) || len(r.Scope) != len(tc.opts.Scope) {
				t.Errorf("scope: got %v, computed %v, asked %v", got.Scope, r.Scope, tc.opts.Scope)
			}

			if got.Converged != r.Converged || got.BGPIterations != r.BGPIterations ||
				got.IGPIterations != r.IGPIterations || got.OuterRounds != r.OuterRounds {
				t.Errorf("convergence metadata changed: got %+v", got)
			}
			if len(got.Nodes) != len(r.Nodes) {
				t.Fatalf("node count: got %d want %d", len(got.Nodes), len(r.Nodes))
			}
			for n := range r.Nodes {
				if gf, wf := got.NodeFingerprint(n), r.NodeFingerprint(n); gf != wf {
					t.Errorf("node %s fingerprint mismatch: %x != %x", n, gf, wf)
				}
			}
			if len(got.Sessions) != len(r.Sessions) {
				t.Fatalf("session count: got %d want %d", len(got.Sessions), len(r.Sessions))
			}
			for i := range r.Sessions {
				if got.Sessions[i].String() != r.Sessions[i].String() {
					t.Errorf("session %d: %s != %s", i, got.Sessions[i], r.Sessions[i])
				}
			}
			// Route listings (the user-visible "routes" question) must render
			// identically.
			for n, ns := range r.Nodes {
				want := fmt.Sprint(ns.DefaultVRF().Main.AllBest())
				have := fmt.Sprint(got.Nodes[n].DefaultVRF().Main.AllBest())
				if have != want {
					t.Errorf("node %s routes:\n got %s\nwant %s", n, have, want)
				}
			}
			// Topology must be re-inferred identically.
			if len(got.Topology.Edges) != len(r.Topology.Edges) {
				t.Errorf("topology edges: got %d want %d", len(got.Topology.Edges), len(r.Topology.Edges))
			}
			// The result must be re-linked to the caller's network: the
			// same Network, and device and neighbor pointers into it.
			if got.Network != r.Network {
				t.Fatal("decoded result does not carry the network passed in")
			}
			for n, ns := range got.Nodes {
				if ns.Device != r.Network.Devices[n] {
					t.Errorf("node %s device pointer not linked to the network", n)
				}
			}
			for i, s := range got.Sessions {
				if s.Neighbor == nil || s.Neighbor != r.Sessions[i].Neighbor {
					t.Errorf("session %s neighbor pointer not linked to the network", s)
				}
			}
		})
	}
}

// TestPersistRefusesDegraded asserts degraded results cannot be persisted.
func TestPersistRefusesDegraded(t *testing.T) {
	r := dataplane.Run(testnet.BadGadget(), dataplane.Options{MaxIterations: 50})
	if !r.Degraded() {
		t.Fatal("bad gadget run should be degraded")
	}
	if _, err := dataplane.MarshalResult(r); err == nil {
		t.Fatal("MarshalResult accepted a degraded result")
	}
}

// reseal replaces an artifact's CRC-32C trailer with the checksum of its
// (possibly mutated) contents, so corrupt input reaches the decoder
// proper instead of stopping at the checksum.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	body := append([]byte(nil), b[:len(b)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// oldArtifact is a version-2 (gob) artifact of testnet.Figure2, written
// by the codec this one replaced.
func oldArtifact(t testing.TB) []byte {
	b, err := os.ReadFile("testdata/artifact_v2_figure2.gob")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUnmarshalRejectsCorruptAndOld asserts every truncation, every
// single-bit flip, a stale version and the old gob format all return an
// error — and that resealed bit flips, which get past the checksum,
// never panic.
func TestUnmarshalRejectsCorruptAndOld(t *testing.T) {
	net := testnet.Figure2()
	b, err := dataplane.MarshalResult(dataplane.Run(net, dataplane.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dataplane.UnmarshalResult(b, net); err != nil {
		t.Fatalf("intact artifact: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := dataplane.UnmarshalResult(b[:n], net); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(b))
		}
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			c := append([]byte(nil), b...)
			c[i] ^= 1 << bit
			if _, err := dataplane.UnmarshalResult(c, net); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
			dataplane.UnmarshalResult(reseal(c), net) // must not panic
		}
	}
	stale := append([]byte(nil), b...)
	stale[4] = 2 // the version uvarint follows the 4-byte magic
	if _, err := dataplane.UnmarshalResult(reseal(stale), net); err == nil {
		t.Error("version-2 header accepted")
	}
	if _, err := dataplane.UnmarshalResult(oldArtifact(t), net); err == nil {
		t.Error("old gob artifact accepted")
	}
	if _, err := dataplane.UnmarshalResult(b, nil); err == nil {
		t.Error("decode without a network accepted")
	}
}

// FuzzUnmarshalResult feeds arbitrary bytes to the artifact decoder, both
// as given and resealed with a valid checksum: it must return an error or
// a result that fingerprints and re-marshals, never panic.
func FuzzUnmarshalResult(f *testing.F) {
	nets := []*config.Network{testnet.Figure2(), testnet.Diamond(), testnet.EBGPChain(),
		testnet.ECMPWithBrokenBranch(), testnet.Firewall(), testnet.FirewallNAT()}
	for i, net := range nets {
		b, err := dataplane.MarshalResult(dataplane.Run(net, dataplane.Options{}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), b)
	}
	f.Add(uint8(0), oldArtifact(f))
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		net := nets[int(which)%len(nets)]
		for _, in := range [][]byte{b, reseal(b)} {
			got, err := dataplane.UnmarshalResult(in, net)
			if err != nil {
				continue
			}
			got.Fingerprint()
			if _, err := dataplane.MarshalResult(got); err != nil {
				t.Fatalf("decoded result does not re-marshal: %v", err)
			}
		}
	})
}
