// Package netgen generates synthetic networks that stand in for the 11
// proprietary real networks of the paper's Table 1. Each generator emits
// genuine configuration *text* in the repository's IOS-style and
// Junos-style dialects, so benchmarks exercise the entire pipeline:
// parsing (Stage 1), data plane generation (Stage 2), and verification
// (Stage 3).
//
// The generators cover the paper's network types — data center fabrics
// (eBGP leaf/spine), paired data centers, WAN/backbone (OSPF + iBGP core,
// eBGP at the edges), and enterprise campus (multi-area OSPF, ACLs,
// statics) — across roughly the paper's size range (75–2735 devices).
package netgen

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/vendors"
)

// Dialect selects the emitted configuration language.
type Dialect int

// Dialects.
const (
	IOS Dialect = iota
	Junos
)

// DeviceText is one device's generated configuration.
type DeviceText struct {
	Hostname string
	Dialect  Dialect
	Text     string
}

// Snapshot is a generated network: configuration files plus bookkeeping.
type Snapshot struct {
	Name    string
	Type    string
	Devices []DeviceText
	// Warnings records non-fatal generation problems (e.g. an overlay
	// targeting a device that does not exist); the snapshot is still
	// usable without the affected piece.
	Warnings []string
}

// LoC returns total configuration lines (Table 1's LoC column).
func (s *Snapshot) LoC() int {
	n := 0
	for _, d := range s.Devices {
		n += strings.Count(d.Text, "\n")
	}
	return n
}

// Parse runs Stage 1 over all device texts through the parse stage's
// dialect dispatch, without the pipeline's cache or fault points.
func (s *Snapshot) Parse() (*config.Network, []config.Warning) {
	net := config.NewNetwork()
	var warns []config.Warning
	for _, dt := range s.Devices {
		d, w := vendors.Parse(dt.Hostname, dt.Text)
		net.Devices[d.Hostname] = d
		warns = append(warns, w...)
	}
	return net, warns
}

// subnetAlloc hands out consecutive subnets.
type subnetAlloc struct {
	next uint32
	size uint32 // addresses per subnet
	plen uint8
}

func newAlloc(base string, plen uint8) *subnetAlloc {
	p := ip4.MustParsePrefix(base)
	return &subnetAlloc{next: uint32(p.First()), size: 1 << (32 - plen), plen: plen}
}

func (a *subnetAlloc) alloc() ip4.Prefix {
	p := ip4.Prefix{Addr: ip4.Addr(a.next), Len: a.plen}
	a.next += a.size
	return p
}

// iosConfig builds IOS-style text.
type iosConfig struct {
	b strings.Builder
}

func (c *iosConfig) line(format string, args ...any) {
	fmt.Fprintf(&c.b, format+"\n", args...)
}

func (c *iosConfig) bang() { c.b.WriteString("!\n") }

func mask(plen uint8) string {
	return ip4.Mask(plen).String()
}

// junosConfig builds Junos-style set commands.
type junosConfig struct {
	b strings.Builder
}

func (c *junosConfig) set(format string, args ...any) {
	fmt.Fprintf(&c.b, "set "+format+"\n", args...)
}

// mgmt emits standard management-plane config (NTP/syslog/DNS), shared by
// both dialects via the IOS emitter; junos devices carry it in their own
// syntax only when the generator asks.
func iosMgmt(c *iosConfig, ntp1, ntp2 string) {
	c.line("ntp server %s", ntp1)
	c.line("ntp server %s", ntp2)
	c.line("logging host 192.0.2.50")
	c.line("ip name-server 192.0.2.53")
	c.bang()
}
