package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/ip4"
	"repro/internal/netgen"
)

// textsOf flattens a generated snapshot into the hostname → config map the
// loaders take.
func textsOf(s *netgen.Snapshot) map[string]string {
	m := make(map[string]string, len(s.Devices))
	for _, d := range s.Devices {
		m[d.Hostname] = d.Text
	}
	return m
}

// fabric generates a multipath Clos fabric with one host subnet per ToR.
func fabric(name string, spines, pods, aggs, tors int) map[string]string {
	return textsOf(netgen.Fabric(netgen.FabricParams{Name: name, Spines: spines, Pods: pods,
		AggPerPod: aggs, TorPerPod: tors, HostNetsPerTor: 1, Multipath: true}))
}

// torsOf lists the fabric's ToR hostnames, sorted.
func torsOf(texts map[string]string) []string {
	var out []string
	for h := range texts {
		if strings.Contains(h, "-tor") {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// podOf returns the pod part of a fabric hostname ("sv-p02-tor03" → "p02").
func podOf(host string) string {
	parts := strings.Split(host, "-")
	if len(parts) < 3 {
		return ""
	}
	return parts[len(parts)-2]
}

// pick draws n distinct elements of xs in seeded order.
func pick(rng *rand.Rand, xs []string, n int) []string {
	idx := rng.Perm(len(xs))
	if n > len(xs) {
		n = len(xs)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = xs[idx[i]]
	}
	return out
}

// hostSubnet returns the device's first host-facing subnet and the name of
// its interface.
func hostSubnet(net *config.Network, dev string) (iface string, p ip4.Prefix, err error) {
	d := net.Devices[dev]
	if d == nil {
		return "", ip4.Prefix{}, fmt.Errorf("no device %s", dev)
	}
	for _, in := range d.InterfaceNames() {
		if strings.HasPrefix(in, "host") && len(d.Interfaces[in].Addresses) > 0 {
			a := d.Interfaces[in].Addresses[0]
			return in, ip4.Prefix{Addr: a.Addr, Len: a.Len}.Canonical(), nil
		}
	}
	return "", ip4.Prefix{}, fmt.Errorf("%s has no host subnet", dev)
}

// nullRouteEdit returns dev's config with the lower half of its host
// subnet null-routed (breaking flows into it) plus a null route to unused
// prefix number n, so every n yields distinct config text without changing
// any answer.
func nullRouteEdit(texts map[string]string, net *config.Network, dev string, n int) (string, error) {
	_, p, err := hostSubnet(net, dev)
	if err != nil {
		return "", err
	}
	t := strings.TrimSuffix(texts[dev], "end\n")
	return t + fmt.Sprintf("ip route %s 255.255.255.128 Null0\n", p.Addr) +
		fmt.Sprintf("ip route 100.%d.%d.0 255.255.255.0 Null0\nend\n", 64+(n/256)%64, n%256), nil
}

// with returns a copy of texts with dev's config replaced.
func with(texts map[string]string, dev, text string) map[string]string {
	out := make(map[string]string, len(texts))
	for k, v := range texts {
		out[k] = v
	}
	out[dev] = text
	return out
}

// digest hashes a rendered answer.
func digest(answer string) string {
	h := sha256.Sum256([]byte(answer))
	return hex.EncodeToString(h[:])[:16]
}
